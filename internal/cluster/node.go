package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"time"

	"decluster/internal/aggregate"
	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
	"decluster/internal/serve"
)

// NodeConfig describes one cluster member.
type NodeConfig struct {
	// ID is the node's stable member ID: the identity it keeps across
	// map epochs. In a freshly built map member IDs equal map indices; a
	// joiner gets a fresh ID above every existing one. A node whose ID
	// is absent from Map is a standby — it serves nothing until a
	// migration brings it into a later epoch.
	ID int
	// Map is the cluster's shard map; all nodes must share one.
	Map *ShardMap
	// Method declusters each node's buckets across its local disks. Its
	// grid must equal the shard map's grid.
	Method alloc.Method
	// Records is the full dataset; the node keeps only the records
	// whose cell falls in a shard it hosts.
	Records []datagen.Record
	// Faults optionally injects node-level faults at the HTTP layer; a
	// harness shares one injector across all its nodes. Nil disables.
	Faults *fault.NodeInjector
	// SlowUnit is the extra latency one slow-factor step adds per
	// request: a node at factor f sleeps (f-1)·SlowUnit before
	// answering. Zero selects 2ms.
	SlowUnit time.Duration
	// Obs optionally observes the node's scheduler, and mirrors its queue
	// depth and shed count into the per-node families at slot ID
	// (serve.WithNodeMetrics).
	Obs *obs.Sink
	// ServeOptions passes extra options (base latency, admission,
	// breakers, hedging, local disk faults…) to the node's scheduler.
	ServeOptions []serve.Option
}

// Node is one cluster member: a serve.Scheduler over one grid file
// holding the node's buckets, plus the HTTP surface the router talks
// to. The scheduler and file swap atomically during a rebuild or a
// migration cutover.
//
// Epoch state: cur is the map the node serves; prev (when set) is the
// map one cutover ago, still answerable because cutover never removes
// records a prev shard needs — so routers one epoch behind keep getting
// complete answers while they catch up. pending (when set) is the next
// epoch's map mid-migration. One invariant keeps every epoch exact: a
// bucket's records are in the file at most once, and a bucket is there
// iff cur or prev holds it or it is in ready (ingested since the last
// cutover or rebuild). A migration inserts an incoming bucket only when
// it is absent, and a pending-epoch read is admitted only once every
// bucket it touches is present, so the live answer is the pending
// answer. The migrating router never sends one — it reads the old epoch
// until cutover — but a router that learnt the new map by gossip from a
// member that cut over, while this one's cutover ack was lost, does. An
// abort drops pending alone: ingested buckets stay, and ready keeps a
// re-run from inserting them twice.
type Node struct {
	id       int
	g        *grid.Grid
	cfg      NodeConfig
	faults   *fault.NodeInjector
	slowUnit time.Duration
	// lat is the node's own query-service latency histogram — always
	// on, private to the node (deliberately not the optional shared Obs
	// sink, whose families would merge in-process co-tenants), and
	// shipped cumulatively in health replies. A controller whose router
	// never carries the query traffic windows THIS by diffing
	// successive probes; it is the only latency signal that survives
	// running the autopilot in its own process.
	lat *obs.Histogram

	mu         sync.RWMutex
	cur        *ShardMap
	prev       *ShardMap
	pending    *ShardMap
	ready      map[int]bool // linearized bucket → ingested since the last cutover or rebuild
	file       *gridfile.File
	sched      *serve.Scheduler
	rebuilding bool
	// aggIx is the node's lazily built aggregate index, valid while
	// aggFile still is the live file at the record count the index
	// snapshotted — a cutover swap or any insert (rebuild, migration)
	// invalidates it.
	aggIx   *aggregate.AggregateIndex
	aggFile *gridfile.File
}

// NewNode builds a node and loads its slice of the dataset: exactly the
// records whose grid cell falls in a shard the node hosts (primary or
// replica copy) under the map. A member ID absent from the map starts
// empty, as a standby.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("cluster: node %d: nil shard map", cfg.ID)
	}
	if cfg.ID < 0 {
		return nil, fmt.Errorf("cluster: negative node ID %d", cfg.ID)
	}
	if cfg.Method == nil || cfg.Method.Grid().Buckets() != cfg.Map.Grid().Buckets() {
		return nil, fmt.Errorf("cluster: node %d: method grid does not match shard map grid", cfg.ID)
	}
	if cfg.SlowUnit <= 0 {
		cfg.SlowUnit = 2 * time.Millisecond
	}
	n := &Node{
		id: cfg.ID, g: cfg.Map.Grid(), cfg: cfg, cur: cfg.Map, ready: map[int]bool{},
		faults: cfg.Faults, slowUnit: cfg.SlowUnit,
		lat: obs.NewRegistry().Histogram("cluster.node.query.latency"),
	}
	file, sched, err := n.buildStack(cfg.Records, cfg.Map)
	if err != nil {
		return nil, err
	}
	n.file, n.sched = file, sched
	return n, nil
}

// buildStack creates a fresh grid file holding the subset of recs this
// member hosts under ANY of the given maps, bulk-loaded in one pass so
// each hosted bucket is one packed run, and a scheduler over it.
// Passing two maps (cutover) keeps the union, so the previous epoch
// stays fully answerable for one more migration.
func (n *Node) buildStack(recs []datagen.Record, maps ...*ShardMap) (*gridfile.File, *serve.Scheduler, error) {
	file, err := gridfile.New(gridfile.Config{Method: n.cfg.Method})
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: node %d: %w", n.id, err)
	}
	views := make([]holder, len(maps))
	for i, sm := range maps {
		views[i] = sm.holder(n.id)
	}
	hosted := func(b int) bool { return slices.ContainsFunc(views, func(h holder) bool { return h.holds(b) }) }
	if i, err := gridfile.InsertWhere(file, recs, hosted); err != nil {
		return nil, nil, fmt.Errorf("cluster: node %d: record %d: %w", n.id, recs[i].ID, err)
	}
	opts := n.cfg.ServeOptions
	if n.cfg.Obs != nil {
		opts = append(append([]serve.Option(nil), opts...), serve.WithObserver(n.cfg.Obs), serve.WithNodeMetrics(n.id))
	}
	sched, err := serve.New(file, opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: node %d: %w", n.id, err)
	}
	return file, sched, nil
}

// ID returns the node's stable member ID.
func (n *Node) ID() int { return n.id }

// Records returns the node's current record count, buckets ingested
// mid-migration included.
func (n *Node) Records() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.file.Len()
}

// Epoch returns the node's current map epoch.
func (n *Node) Epoch() uint64 { return n.CurrentMap().Epoch() }

// CurrentMap returns the map the node serves.
func (n *Node) CurrentMap() *ShardMap {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.cur
}

// Close drains the node's scheduler.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, err := n.sched.Close()
	return err
}

// admit is the admission preamble every data endpoint runs before its
// own work: the rect must fit the grid, the epoch must name a map the
// node serves, the node must hold every bucket of the rect under that
// map (one shard's or several's), it must not be mid-rebuild, and at the
// pending epoch every bucket of the rect must be present in the live
// file — one still in flight makes the read unavailable, never silently
// incomplete.
//
// The current epoch serves against cur, the previous one (one cutover
// ago) against prev, the pending one against pending. Anything else
// (zero and absent included: maps are born at epoch 1) draws a
// *StaleEpochError carrying the current map, the gossip that lets the
// sender catch up in one round-trip. The epoch check runs before the
// hostedness check: a router on the wrong map must learn the right one,
// not be told "not hosted" against a map it isn't using.
func (n *Node) admit(rect grid.Rect, epoch uint64) (*ShardMap, *serve.Scheduler, error) {
	if err := n.g.CheckRect(rect); err != nil {
		return nil, nil, badRequestError{err}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	var sm *ShardMap
	switch {
	case epoch == n.cur.Epoch():
		sm = n.cur
	case n.prev != nil && epoch == n.prev.Epoch():
		sm = n.prev
	case n.pending != nil && epoch == n.pending.Epoch():
		sm = n.pending
	default:
		return nil, nil, &StaleEpochError{RequestEpoch: epoch, NodeEpoch: n.cur.Epoch(), Map: n.cur}
	}
	if !n.g.EachBucket(rect, sm.holder(n.id).holds) {
		return nil, nil, fmt.Errorf("%w: node %d does not host %v at epoch %d", ErrNotHosted, n.id, rect, sm.Epoch())
	}
	if n.rebuilding {
		return nil, nil, fmt.Errorf("%w: node %d is rebuilding", fault.ErrUnavailable, n.id)
	}
	if sm == n.pending && !n.g.EachBucket(rect, n.present) {
		return nil, nil, fmt.Errorf("%w: node %d: %v not yet migrated for epoch %d", fault.ErrUnavailable, n.id, rect, sm.Epoch())
	}
	return sm, n.sched, nil
}

// present reports whether bucket b's records are in the live file: held
// under cur or prev, or ingested since the last cutover or rebuild
// (caller holds mu).
func (n *Node) present(b int) bool {
	return n.cur.Holds(n.id, b) || (n.prev != nil && n.prev.Holds(n.id, b)) || n.ready[b]
}

// Handler returns the node's HTTP surface with fault injection applied
// in front of every endpoint.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", n.handleQuery)
	mux.HandleFunc("POST /v1/aggregate", n.handleAggregate)
	mux.HandleFunc("GET /v1/health", n.handleHealth)
	mux.HandleFunc("GET /v1/shards", n.handleShards)
	mux.HandleFunc("POST /v1/migrate/prepare", n.handlePrepare)
	mux.HandleFunc("POST /v1/migrate/bucket", n.handleMigrateBucket)
	mux.HandleFunc("POST /v1/migrate/cutover", n.handleCutover)
	mux.HandleFunc("POST /v1/migrate/abort", n.handleAbort)
	return n.faultMiddleware(mux)
}

// faultMiddleware applies the node's injected fault state to every
// request: a crashed node aborts the connection without a response (the
// client sees a transport error, exactly like a dead process); a
// partitioned node blackholes the request until the client gives up; a
// slow node delays by (factor-1)·SlowUnit.
//
// Both blocking branches consume the request body first: net/http
// starts the background read that notices a client disconnect — and
// cancels r.Context() — only once the body has been read to EOF, so a
// handler parked with an unread POST body would outlive its cancelled
// client until server shutdown.
func (n *Node) faultMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.faults != nil {
			switch n.faults.NodeStatus(n.id) {
			case fault.NodeCrashed:
				panic(http.ErrAbortHandler)
			case fault.NodePartitioned:
				_, _ = io.Copy(io.Discard, r.Body) // best effort: the request is dropped either way
				<-r.Context().Done()
				return
			}
			if f := n.faults.NodeSlowFactor(n.id); f > 1 {
				// The handler still needs the body after the delay; a short
				// read here (the largest route cap bounds it) fails the
				// handler's own decode.
				body, _ := io.ReadAll(http.MaxBytesReader(w, r.Body, recordPayloadLimit))
				r.Body = io.NopCloser(bytes.NewReader(body))
				delay := time.Duration(float64(n.slowUnit) * (f - 1))
				t := time.NewTimer(delay)
				select {
				case <-r.Context().Done():
					t.Stop()
					return
				case <-t.C:
				}
			}
		}
		next.ServeHTTP(w, r)
	})
}

// handleQuery answers one sub-rectangle of a range query, a router
// leg's or a copier's one-bucket read, admitted at the request's
// priority.
func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r.Header.Get("Content-Type"), r.Body, false)
	if err != nil {
		writeError(w, err)
		return
	}
	rect := req.Rects[0] // a query carries one
	sm, sched, err := n.admit(rect, req.Epoch)
	if err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	res, err := sched.DoPages(r.Context(), serve.Query{Rect: rect, Priority: req.Priority})
	// Only foreground reads are the node's serving latency: a copier's
	// below-zero reads queue behind them by design. Failures count too: a
	// shed or timed-out query is the latency signal at its loudest, and
	// dropping it would hide exactly the overload a health-probing
	// controller is looking for.
	if req.Priority >= 0 {
		n.lat.Observe(time.Since(start))
	}
	if err != nil {
		writeError(w, err)
		return
	}
	// The frame is encoded from the bucket pages, views of the live file.
	// They stay valid until the frame is written: the file's one writer
	// beside running reads, a migration ingest, writes only buckets
	// absent from it, which admit keeps every read off. Release drops the
	// views once the frame is out.
	defer res.Release()
	writePage(w, &recordPage{Epoch: sm.Epoch(), Buckets: rect.Volume(), Degraded: res.Degraded, Counts: res.RecordsPerBucket, Pages: res.Pages})
}

// aggregateIndex returns the node's aggregate index, rebuilding it when
// the live file was swapped (cutover, rebuild) or grew (a rebuild or
// migration insert) since the last snapshot. The index is immutable once
// built, so the double-checked rebuild races safely with concurrent
// aggregate reads.
func (n *Node) aggregateIndex() (*aggregate.AggregateIndex, error) {
	n.mu.RLock()
	ix, fresh := n.aggIx, n.aggFresh()
	n.mu.RUnlock()
	if fresh {
		return ix, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.aggFresh() {
		return n.aggIx, nil
	}
	ix, err := aggregate.BuildAggregateIndex(n.file)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", n.id, err)
	}
	n.aggIx, n.aggFile = ix, n.file
	return ix, nil
}

// aggFresh reports whether aggIx reflects the live file as it stands.
// The caller holds mu: the record count it compares is the one the
// inserts write.
func (n *Node) aggFresh() bool {
	return n.aggIx != nil && n.aggFile == n.file && n.aggIx.Records() == int64(n.file.Len())
}

// handleAggregate answers an aggregate leg from the node's aggregate
// index — zero bucket reads, no scheduler admission. Each of the leg's
// rects is admitted as handleQuery admits its one, pending epoch
// included: admit's readiness check leaves every bucket of the rect in
// the file once. The rects' partials merge into the one answer.
func (n *Node) handleAggregate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r.Header.Get("Content-Type"), r.Body, true)
	if err != nil {
		writeError(w, err)
		return
	}
	var sm *ShardMap
	for _, rect := range req.Rects {
		if sm, _, err = n.admit(rect, req.Epoch); err != nil {
			writeError(w, err)
			return
		}
	}
	ix, err := n.aggregateIndex()
	if err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	q := aggregate.AggregateQuery{Op: aggregate.AggregateOp(req.Kind - 1), Attr: req.Attr}
	parts := make([]aggregate.AggregateResult, len(req.Rects), maxRequestRects)
	for i, rect := range req.Rects {
		q.Rect = rect
		if parts[i], err = ix.Aggregate(q); err != nil {
			break
		}
	}
	n.lat.Observe(time.Since(start))
	if err != nil {
		writeError(w, badRequestError{err})
		return
	}
	writePage(w, &aggregateResponse{AggregateResult: aggregate.MergeAggregates(q.Op, q.Attr, parts), Epoch: sm.Epoch()})
}

// handlePrepare stages the next-epoch map (PREPARE). Idempotent for the
// already-staged and already-current epochs, so a migrator retrying
// after a partial round is safe; a genuinely old epoch draws stale, the
// current epoch under another map (a plan made from a map the cluster
// has left) draws a re-plan error, and a second concurrent migration
// draws a conflict.
func (n *Node) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	sm, err := mapFromWire(req.Map)
	if err != nil {
		writeError(w, badRequestError{err})
		return
	}
	if sm.Grid().Buckets() != n.g.Buckets() || sm.Grid().K() != n.g.K() {
		writeError(w, badRequestError{fmt.Errorf("prepare map grid %v does not match node grid %v", sm.Grid(), n.g)})
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case sm.Epoch() == n.cur.Epoch() && !reflect.DeepEqual(toWireMap(sm), toWireMap(n.cur)):
		writeError(w, fmt.Errorf("cluster: node %d: already at epoch %d under another map; re-plan from the current map",
			n.id, sm.Epoch()))
		return
	case sm.Epoch() == n.cur.Epoch():
		// Already cut over (a retry after a partial cutover round).
	case sm.Epoch() < n.cur.Epoch():
		writeError(w, &StaleEpochError{RequestEpoch: sm.Epoch(), NodeEpoch: n.cur.Epoch(), Map: n.cur})
		return
	case n.pending != nil && n.pending.Epoch() == sm.Epoch():
		// Already staged.
	case n.pending != nil:
		writeError(w, fmt.Errorf("cluster: node %d: migration to epoch %d already staged, refusing epoch %d",
			n.id, n.pending.Epoch(), sm.Epoch()))
		return
	default:
		n.pending = sm
	}
	writeJSON(w, epochResponse{Epoch: n.cur.Epoch(), Pending: n.pendingEpochLocked()})
}

// handleMigrateBucket ingests one bucket's records for the pending epoch
// (COPY) and marks the bucket ready. The page goes into the live file
// only when the bucket is absent from it: records are immutable, so a
// copy already there — held under cur or prev, or ingested before — is
// as good as this one. The insert is safe beside running queries: no
// epoch the node serves can read an absent bucket (admit refuses it),
// and a read touches only its own buckets. A page carrying a record of
// another bucket is refused before the file is touched: ingesting it
// would plant a second copy of that record wherever its values fall.
func (n *Node) handleMigrateBucket(w http.ResponseWriter, r *http.Request) {
	var req recordPage
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, recordPayloadLimit))
	if err == nil {
		err = req.decode(r.Header.Get("Content-Type"), data)
	}
	if err != nil {
		writeError(w, badRequestError{fmt.Errorf("bad request body: %w", err)})
		return
	}
	cell := grid.Coord(req.Cell)
	if len(cell) != n.g.K() || !n.g.Contains(cell) {
		writeError(w, badRequestError{fmt.Errorf("cell %v outside grid %v", cell, n.g)})
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pending == nil || n.pending.Epoch() != req.Epoch {
		// Requesting an epoch the node already adopted means the plan was
		// built from an outdated map (prepare tolerates that silently for
		// cutover-retry idempotency, so the mismatch surfaces here).
		if req.Epoch <= n.cur.Epoch() {
			writeError(w, fmt.Errorf("cluster: node %d: no migration to epoch %d staged — already at epoch %d; re-plan from the current map",
				n.id, req.Epoch, n.cur.Epoch()))
			return
		}
		writeError(w, &StaleEpochError{RequestEpoch: req.Epoch, NodeEpoch: n.cur.Epoch(), Map: n.cur})
		return
	}
	key := n.g.Linearize(cell)
	if !n.pending.Holds(n.id, key) {
		writeError(w, fmt.Errorf("%w: node %d does not host cell %v at pending epoch %d",
			ErrNotHosted, n.id, cell, req.Epoch))
		return
	}
	if err := inBucket(req.Records, key, n.file.BucketOf); err != nil {
		writeError(w, badRequestError{fmt.Errorf("cell %v: %w", cell, err)})
		return
	}
	if !n.present(key) {
		if err := n.file.InsertAll(req.Records); err != nil {
			writeError(w, err)
			return
		}
	}
	n.ready[key] = true
	writeJSON(w, epochResponse{Epoch: n.cur.Epoch(), Pending: req.Epoch})
}

// handleCutover promotes the pending map to current (CUTOVER). The node
// refuses unless every bucket it hosts under pending is present — the
// check that makes "no lost buckets" structural rather than
// probabilistic. On success the live stack is rebuilt as the union of
// what the new and old maps host, so buckets past their grace window
// (held under neither) drop out, the old map becomes prev (still
// answerable), and ready starts empty. Idempotent for the
// already-current epoch.
func (n *Node) handleCutover(w http.ResponseWriter, r *http.Request) {
	var req epochRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	n.mu.Lock()
	if n.cur.Epoch() == req.Epoch {
		resp := epochResponse{Epoch: n.cur.Epoch(), Pending: n.pendingEpochLocked()}
		n.mu.Unlock()
		writeJSON(w, resp)
		return
	}
	if n.pending == nil || n.pending.Epoch() != req.Epoch {
		err := &StaleEpochError{RequestEpoch: req.Epoch, NodeEpoch: n.cur.Epoch(), Map: n.cur}
		n.mu.Unlock()
		writeError(w, err)
		return
	}
	next, missing := n.pending.holder(n.id), 0
	for b := 0; b < n.g.Buckets(); b++ {
		if next.holds(b) && !n.present(b) {
			missing++
		}
	}
	if missing > 0 {
		err := fmt.Errorf("%w: node %d: cutover to epoch %d refused, %d buckets not migrated",
			fault.ErrUnavailable, n.id, req.Epoch, missing)
		n.mu.Unlock()
		writeError(w, err)
		return
	}
	file, sched, err := n.buildStack(dumpRecords(n.file), n.pending, n.cur)
	if err != nil {
		n.mu.Unlock()
		writeError(w, err)
		return
	}
	old := n.sched
	n.prev, n.cur, n.pending = n.cur, n.pending, nil
	clear(n.ready)
	n.file, n.sched = file, sched
	resp := epochResponse{Epoch: n.cur.Epoch()}
	n.mu.Unlock()
	_, _ = old.Close()
	writeJSON(w, resp)
}

// handleAbort drops the staged epoch (ABORT): the node serves exactly
// the epochs it served before PREPARE. Buckets ingested meanwhile stay
// in the file, where no served epoch reads them, and stay ready, so a
// re-run never inserts them twice; the next cutover or rebuild drops
// whatever no map holds. A no-op when nothing (or a different epoch) is
// staged; an error when the epoch already cut over — a cutover cannot
// be undone, and the migrator must know.
func (n *Node) handleAbort(w http.ResponseWriter, r *http.Request) {
	var req epochRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cur.Epoch() == req.Epoch {
		writeError(w, fmt.Errorf("cluster: node %d: cannot abort epoch %d: already current", n.id, req.Epoch))
		return
	}
	if n.pending != nil && n.pending.Epoch() == req.Epoch {
		n.pending = nil
	}
	writeJSON(w, epochResponse{Epoch: n.cur.Epoch(), Pending: n.pendingEpochLocked()})
}

// pendingEpochLocked returns the staged epoch (caller holds mu).
func (n *Node) pendingEpochLocked() uint64 {
	if n.pending == nil {
		return 0
	}
	return n.pending.Epoch()
}

// inBucket checks that every record of a page naming bucket b belongs to
// b under bucketOf.
func inBucket(recs []datagen.Record, b int, bucketOf func(values []float64) (int, error)) error {
	for _, rec := range recs {
		got, err := bucketOf(rec.Values)
		if err != nil {
			return fmt.Errorf("record %d: %w", rec.ID, err)
		}
		if got != b {
			return fmt.Errorf("record %d belongs to bucket %d, not %d", rec.ID, got, b)
		}
	}
	return nil
}

// dumpRecords returns every record in f, bucket by bucket in ascending
// order, each bucket's records in storage order.
func dumpRecords(f *gridfile.File) []datagen.Record {
	recs := make([]datagen.Record, 0, f.Len())
	for b := range f.Grid().Buckets() {
		recs = append(recs, f.Bucket(b)...)
	}
	return recs
}

// handleHealth summarises the node.
func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	n.mu.RLock()
	count, rebuilding := n.file.Len(), n.rebuilding
	cur, pending := n.cur, n.pendingEpochLocked()
	sched := n.sched
	n.mu.RUnlock()
	var shards []int
	idx, member := cur.NodeOfMember(n.id)
	if member {
		shards = append([]int(nil), cur.HostedShards(idx)...)
	}
	state := "serving"
	switch {
	case rebuilding:
		state = "rebuilding"
	case pending != 0:
		state = "migrating"
	case !member:
		// Not in the current map and not mid-handoff: an idle standby
		// awaiting a join migration. Advertising it lets the autopilot
		// (and operators) discover spare capacity by probing.
		state = "standby"
	}
	writeJSON(w, Health{
		Node:       n.id,
		Shards:     shards,
		Records:    count,
		State:      state,
		Epoch:      cur.Epoch(),
		Pending:    pending,
		QueueDepth: sched.QueueDepth(),
		Shed:       sched.Stats().Shed(),
		Latency:    n.lat.Snapshot(),
	})
}

// handleShards describes the shard map as this node knows it.
func (n *Node) handleShards(w http.ResponseWriter, r *http.Request) {
	n.mu.RLock()
	sm := n.cur
	n.mu.RUnlock()
	resp := shardsResponse{
		Nodes:     sm.Nodes(),
		Replicas:  sm.Replicas(),
		Placement: sm.PlacementName(),
		Grid:      sm.Grid().Dims(),
	}
	for _, sh := range sm.Shards() {
		resp.Shards = append(resp.Shards, wireShard{ID: sh.ID, Rect: toWireRect(sh.Rect), Nodes: sm.ShardMembers(sh.ID)})
	}
	writeJSON(w, resp)
}

// BeginRebuild wipes the node's data and marks it rebuilding: a fresh
// empty grid file and scheduler replace the old stack (which is
// drained). A node being rebuilt lost its memory: any in-flight
// migration and its ready set are dropped, and so is prev — the rebuild
// restores cur's buckets only, so a router one epoch behind must draw
// StaleEpoch and adopt cur, not be answered from a file that no longer
// holds prev's buckets. Queries are refused with CodeUnavailable until
// FinishRebuild.
func (n *Node) BeginRebuild() error {
	n.mu.RLock()
	cur := n.cur
	n.mu.RUnlock()
	file, sched, err := n.buildStack(nil, cur)
	if err != nil {
		return err
	}
	n.mu.Lock()
	old := n.sched
	n.file, n.sched = file, sched
	n.rebuilding = true
	n.prev, n.pending = nil, nil
	clear(n.ready)
	n.mu.Unlock()
	_, err = old.Close()
	return err
}

// RebuildInsert loads one recovered bucket during a rebuild. A page
// carrying a record of another bucket is refused, as handleMigrateBucket
// refuses one, before the file is touched.
func (n *Node) RebuildInsert(cell grid.Coord, recs []datagen.Record) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.rebuilding {
		return fmt.Errorf("cluster: node %d: RebuildInsert outside a rebuild", n.id)
	}
	if err := inBucket(recs, n.g.Linearize(cell), n.file.BucketOf); err != nil {
		return badRequestError{fmt.Errorf("cluster: node %d: cell %v: %w", n.id, cell, err)}
	}
	return n.file.InsertAll(recs)
}

// FinishRebuild returns the node to serving.
func (n *Node) FinishRebuild() {
	n.mu.Lock()
	n.rebuilding = false
	n.mu.Unlock()
}

// decodeJSONBody parses the request body, at most smallPayloadLimit
// bytes of it, as JSON into v.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, smallPayloadLimit)).Decode(v); err != nil {
		return badRequestError{fmt.Errorf("bad request body: %w", err)}
	}
	return nil
}
