package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/batch"
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
	// PageCapacity is records per page (gridfile default when 0).
	PageCapacity int
	// Boundaries optionally sets per-axis partition boundaries.
	Boundaries [][]float64
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

// Node is one cluster member: a serve.Scheduler over a grid file
// holding the node's hosted shards, plus the HTTP surface the router
// talks to. The scheduler and file swap atomically during a rebuild or
// a migration cutover.
//
// Epoch state: cur is the map the node serves; prev (when set) is the
// map one cutover ago, still answerable because cutover never removes
// records a prev shard needs — so routers one epoch behind keep getting
// complete answers while they catch up. pending (when set) is the
// staged next-epoch map mid-migration: its incoming buckets accumulate
// in a separate staging file, and pending-epoch reads merge live +
// staging only once every bucket they touch is present — the node-side
// half of the dual-read handoff. An abort simply drops pending and
// staging; nothing ever touched the live stack.
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
	staging    *gridfile.File // pending-epoch ingest; read/written under mu
	ready      map[int]bool   // linearized bucket → ingested into staging
	file       *gridfile.File
	sched      *serve.Scheduler
	rebuilding bool
	// aggIx is the node's lazily built aggregate index, valid while
	// aggFile still is the live file at the record count the index
	// snapshotted — a cutover swap or a rebuild insert invalidates it.
	aggIx   *batch.AggregateIndex
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
		id: cfg.ID, g: cfg.Map.Grid(), cfg: cfg, cur: cfg.Map,
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
// member hosts under ANY of the given maps, and a scheduler over it.
// Passing two maps (cutover) keeps the union, so the previous epoch
// stays fully answerable for one more migration.
func (n *Node) buildStack(recs []datagen.Record, maps ...*ShardMap) (*gridfile.File, *serve.Scheduler, error) {
	file, err := n.newFile()
	if err != nil {
		return nil, nil, err
	}
	views := make([]holder, len(maps))
	for i, sm := range maps {
		views[i] = sm.holder(n.id)
	}
	for _, r := range recs {
		b, err := file.BucketOf(r.Values)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: node %d: record %d: %w", n.id, r.ID, err)
		}
		if !slices.ContainsFunc(views, func(h holder) bool { return h.holds(b) }) {
			continue
		}
		if err := file.Insert(r); err != nil {
			return nil, nil, fmt.Errorf("cluster: node %d: record %d: %w", n.id, r.ID, err)
		}
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

// newFile creates an empty grid file with the node's layout.
func (n *Node) newFile() (*gridfile.File, error) {
	file, err := gridfile.New(gridfile.Config{
		Method:       n.cfg.Method,
		PageCapacity: n.cfg.PageCapacity,
		Boundaries:   n.cfg.Boundaries,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", n.id, err)
	}
	return file, nil
}

// ID returns the node's stable member ID.
func (n *Node) ID() int { return n.id }

// Records returns the node's current record count.
func (n *Node) Records() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.file.Len()
}

// Scheduler returns the node's current scheduler (tests and stats).
func (n *Node) Scheduler() *serve.Scheduler {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.sched
}

// Epoch returns the node's current map epoch.
func (n *Node) Epoch() uint64 { return n.CurrentMap().Epoch() }

// PendingEpoch returns the staged next epoch, or 0 when none.
func (n *Node) PendingEpoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pendingEpochLocked()
}

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

// resolveEpoch picks the map a request epoch addresses: the current
// epoch serves against cur; the previous epoch — one cutover ago — still
// serves against prev; the staged pending epoch selects the dual-read
// merge path. Anything else (zero and absent included: maps are born at
// epoch 1) draws a *StaleEpochError carrying the current map, the gossip
// that lets the sender catch up in one round-trip.
func (n *Node) resolveEpoch(epoch uint64) (sm *ShardMap, isPending bool, err error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	switch {
	case epoch == n.cur.Epoch():
		return n.cur, false, nil
	case n.prev != nil && epoch == n.prev.Epoch():
		return n.prev, false, nil
	case n.pending != nil && epoch == n.pending.Epoch():
		return n.pending, true, nil
	default:
		return nil, false, &StaleEpochError{RequestEpoch: epoch, NodeEpoch: n.cur.Epoch(), Map: n.cur}
	}
}

// admit is the admission preamble every data endpoint runs before its
// own work: the rect must fit the grid, the epoch must name a map the
// node serves, the node must hold every bucket of the rect under that
// map (one shard's or several's), and it must not be mid-rebuild. The
// epoch check runs before the hostedness check: a router on the wrong
// map must learn the right one, not be told "not hosted" against a map
// it isn't using.
func (n *Node) admit(rect grid.Rect, epoch uint64) (sm *ShardMap, isPending bool, sched *serve.Scheduler, err error) {
	if err := n.g.CheckRect(rect); err != nil {
		return nil, false, nil, badRequestError{err}
	}
	if sm, isPending, err = n.resolveEpoch(epoch); err != nil {
		return nil, false, nil, err
	}
	if !n.g.EachBucket(rect, sm.holder(n.id).holds) {
		return nil, false, nil, fmt.Errorf("%w: node %d does not host %v at epoch %d", ErrNotHosted, n.id, rect, sm.Epoch())
	}
	n.mu.RLock()
	sched, rebuilding := n.sched, n.rebuilding
	n.mu.RUnlock()
	if rebuilding {
		return nil, false, nil, fmt.Errorf("%w: node %d is rebuilding", fault.ErrUnavailable, n.id)
	}
	return sm, isPending, sched, nil
}

// Handler returns the node's HTTP surface with fault injection applied
// in front of every endpoint.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", n.handleQuery)
	mux.HandleFunc("POST /v1/aggregate", n.handleAggregate)
	mux.HandleFunc("GET /v1/bucket", n.handleBucket)
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

// handleQuery answers one sub-rectangle of a range query.
func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	rect := req.Rect.rect()
	sm, isPending, sched, err := n.admit(rect, req.Epoch)
	if err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	res, err := sched.Do(r.Context(), serve.Query{Rect: rect, Priority: req.Priority})
	// Failures count too: a shed or timed-out query is the latency
	// signal at its loudest, and dropping it would hide exactly the
	// overload a health-probing controller is looking for.
	n.lat.Observe(time.Since(start))
	if err != nil {
		writeError(w, err)
		return
	}
	defer res.Release() // back to the scheduler's pool once the answer is framed
	records, counts := res.Records, res.RecordsPerBucket
	if isPending {
		if records, counts, err = n.pendingMerge(rect, sm, records, counts); err != nil {
			writeError(w, err)
			return
		}
	}
	writePage(w, &recordPage{Epoch: sm.Epoch(), Buckets: rect.Volume(), Degraded: res.Degraded, Counts: counts, Records: records})
}

// aggregateIndex returns the node's aggregate index, rebuilding it when
// the live file was swapped (cutover, rebuild) or grew (rebuild insert)
// since the last snapshot. The index is immutable once built, so the
// double-checked rebuild races safely with concurrent aggregate reads.
func (n *Node) aggregateIndex() (*batch.AggregateIndex, error) {
	n.mu.RLock()
	ix, file, live := n.aggIx, n.aggFile, n.file
	n.mu.RUnlock()
	if ix != nil && file == live && ix.Records() == int64(live.Len()) {
		return ix, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.aggIx != nil && n.aggFile == n.file && n.aggIx.Records() == int64(n.file.Len()) {
		return n.aggIx, nil
	}
	ix, err := batch.BuildAggregateIndex(n.file)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", n.id, err)
	}
	n.aggIx, n.aggFile = ix, n.file
	return ix, nil
}

// handleAggregate answers one aggregate sub-query from the node's
// summed-area index — zero bucket reads, no scheduler admission.
// Admission matches handleQuery except that the staged pending epoch is
// refused: the dual-read merge dedups records by bucket hosting, which
// an index over two files cannot reproduce, and the router's
// authoritative old-epoch leg covers the window.
func (n *Node) handleAggregate(w http.ResponseWriter, r *http.Request) {
	var req aggregateRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	op, err := batch.ParseAggregateOp(req.Op)
	if err != nil {
		writeError(w, badRequestError{err})
		return
	}
	rect := req.Rect.rect()
	sm, isPending, _, err := n.admit(rect, req.Epoch)
	if err != nil {
		writeError(w, err)
		return
	}
	if isPending {
		writeError(w, fmt.Errorf("%w: node %d: aggregates not served at pending epoch %d",
			fault.ErrUnavailable, n.id, sm.Epoch()))
		return
	}
	ix, err := n.aggregateIndex()
	if err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	res, err := ix.Aggregate(batch.AggregateQuery{Rect: rect, Op: op, Attr: req.Attr})
	n.lat.Observe(time.Since(start))
	if err != nil {
		writeError(w, badRequestError{err})
		return
	}
	writeJSON(w, aggregateResponse{
		Op:      op.String(),
		Attr:    req.Attr,
		Count:   res.Count,
		Sum:     res.Sum,
		Min:     res.Min,
		Max:     res.Max,
		Buckets: res.Buckets,
		Epoch:   sm.Epoch(),
	})
}

// pendingMerge turns the live answer for rect — its records and their
// per-bucket counts, row-major — into the pending-epoch answer and its
// counts, the node-side half of the dual-read handoff. Each bucket's run
// comes whole from one side: the live answer's for a bucket this member
// holds under cur, staging's for the rest. The live file keeps the
// previous epoch's buckets through the grace window and a rejoining
// member is re-sent buckets it still holds, so taking a bucket from both
// sides would return its records twice. Every bucket of rect must be
// held under cur or already ingested; one still in flight makes the
// whole read unavailable — the router's authoritative old-epoch leg
// covers it, and this opportunistic leg must never answer silently
// incomplete.
func (n *Node) pendingMerge(rect grid.Rect, pending *ShardMap, live []datagen.Record, liveCounts []int) ([]datagen.Record, []int, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.pending == nil || n.pending.Epoch() != pending.Epoch() || n.staging == nil {
		return nil, nil, fmt.Errorf("%w: node %d: pending epoch %d gone", fault.ErrUnavailable, n.id, pending.Epoch())
	}
	cur := n.cur.holder(n.id)
	notReady, staged := -1, 0
	if !n.g.EachBucket(rect, func(b int) bool {
		switch {
		case cur.holds(b):
		case n.ready[b]:
			staged += n.staging.BucketLen(b)
		default:
			notReady = b
			return false
		}
		return true
	}) {
		return nil, nil, fmt.Errorf("%w: node %d: bucket %v not yet migrated for epoch %d",
			fault.ErrUnavailable, n.id, n.g.Delinearize(notReady, nil), pending.Epoch())
	}
	out, counts := make([]datagen.Record, 0, len(live)+staged), make([]int, 0, len(liveCounts))
	n.g.EachBucket(rect, func(b int) bool {
		run := live[:liveCounts[len(counts)]]
		live = live[len(run):]
		if !cur.holds(b) {
			run = n.staging.Bucket(b)
		}
		out, counts = append(out, run...), append(counts, len(run))
		return true
	})
	return out, counts, nil
}

// handleBucket serves one bucket's records for cross-node rebuild and
// migration: GET /v1/bucket?cell=1,2,0&epoch=N[&priority=P]. It reads
// through the node's scheduler at the caller's priority so background
// traffic competes (and loses) fairly against foreground queries.
func (n *Node) handleBucket(w http.ResponseWriter, r *http.Request) {
	cell, err := parseCell(r.URL.Query().Get("cell"), n.g)
	if err != nil {
		writeError(w, badRequestError{err})
		return
	}
	prio := 0
	if p := r.URL.Query().Get("priority"); p != "" {
		prio, err = strconv.Atoi(p)
		if err != nil {
			writeError(w, badRequestError{fmt.Errorf("bad priority %q", p)})
			return
		}
	}
	var epoch uint64
	if e := r.URL.Query().Get("epoch"); e != "" {
		epoch, err = strconv.ParseUint(e, 10, 64)
		if err != nil {
			writeError(w, badRequestError{fmt.Errorf("bad epoch %q", e)})
			return
		}
	}
	rect := grid.Rect{Lo: cell, Hi: cell.Clone()}
	sm, isPending, sched, err := n.admit(rect, epoch)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := sched.Do(r.Context(), serve.Query{Rect: rect, Priority: prio})
	if err != nil {
		writeError(w, err)
		return
	}
	defer res.Release()
	records := res.Records
	if isPending {
		if records, _, err = n.pendingMerge(rect, sm, records, res.RecordsPerBucket); err != nil {
			writeError(w, err)
			return
		}
	}
	writePage(w, &recordPage{Epoch: sm.Epoch(), Buckets: 1, Records: records})
}

// handlePrepare stages the next-epoch map (PREPARE). Idempotent for the
// already-staged and already-current epochs, so a migrator retrying
// after a partial round is safe; a genuinely old epoch draws stale, and
// a second concurrent migration draws a conflict.
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
	case sm.Epoch() == n.cur.Epoch():
		// Already cut over (a retry after a partial cutover round).
	case sm.Epoch() < n.cur.Epoch():
		writeError(w, &StaleEpochError{RequestEpoch: sm.Epoch(), NodeEpoch: n.cur.Epoch(), Map: n.cur})
		return
	case n.pending != nil && n.pending.Epoch() == sm.Epoch():
		// Already staged; keep accumulated staging progress.
	case n.pending != nil:
		writeError(w, fmt.Errorf("cluster: node %d: migration to epoch %d already staged, refusing epoch %d",
			n.id, n.pending.Epoch(), sm.Epoch()))
		return
	default:
		staging, err := n.newFile()
		if err != nil {
			writeError(w, err)
			return
		}
		n.pending, n.staging, n.ready = sm, staging, map[int]bool{}
	}
	writeJSON(w, epochResponse{Epoch: n.cur.Epoch(), Pending: n.pendingEpochLocked()})
}

// handleMigrateBucket ingests one bucket's records into the staging
// file for the pending epoch (COPY). Re-delivery of a bucket already
// marked ready is a no-op: records are immutable, so the first copy is
// as good as any. A page carrying a record of another bucket is refused
// before staging is touched: ingesting it would plant a second copy of
// that record wherever its values fall.
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
	if err := inBucket(req.Records, key, n.staging.BucketOf); err != nil {
		writeError(w, badRequestError{fmt.Errorf("cell %v: %w", cell, err)})
		return
	}
	if !n.ready[key] {
		if err := n.staging.InsertAll(req.Records); err != nil {
			writeError(w, err)
			return
		}
		n.ready[key] = true
	}
	writeJSON(w, epochResponse{Epoch: n.cur.Epoch(), Pending: req.Epoch})
}

// handleCutover promotes the pending map to current (CUTOVER). The node
// refuses unless every bucket it newly hosts has arrived — the
// invariant that makes "no lost buckets" structural rather than
// probabilistic. On success the live stack is rebuilt as the union of
// what the new and old maps host, the old map becomes prev (still
// answerable), and staging is gone. Idempotent for the already-current
// epoch.
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
	// Readiness invariant: every bucket held under pending must be held
	// live or ingested.
	next, cur := n.pending.holder(n.id), n.cur.holder(n.id)
	missing := 0
	for b := 0; b < n.g.Buckets(); b++ {
		if next.holds(b) && !cur.holds(b) && !n.ready[b] {
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
	// Merge from the old file only what this member hosts under the
	// outgoing epoch AND did not just receive a fresh copy of: older
	// records are leftovers from the previous grace window, already past
	// their answerable life, and a bucket in the ready set has its
	// authoritative copy in staging (a member rejoining after a leave is
	// re-sent everything, including buckets it still holds). Keeping
	// either would plant duplicate records in the rebuilt file.
	var held []datagen.Record
	for _, rec := range dumpRecords(n.file) {
		b, err := n.file.BucketOf(rec.Values)
		if err != nil {
			n.mu.Unlock()
			writeError(w, err)
			return
		}
		if cur.holds(b) && !n.ready[b] {
			held = append(held, rec)
		}
	}
	recs := append(held, dumpRecords(n.staging)...)
	file, sched, err := n.buildStack(recs, n.pending, n.cur)
	if err != nil {
		n.mu.Unlock()
		writeError(w, err)
		return
	}
	old := n.sched
	n.prev, n.cur, n.pending = n.cur, n.pending, nil
	n.staging, n.ready = nil, nil
	n.file, n.sched = file, sched
	resp := epochResponse{Epoch: n.cur.Epoch()}
	n.mu.Unlock()
	_, _ = old.Close()
	writeJSON(w, resp)
}

// handleAbort drops the staged epoch (ABORT): staging and its readiness
// set vanish, the live stack is untouched, and the node is exactly
// where it was before PREPARE. A no-op when nothing (or a different
// epoch) is staged; an error when the epoch already cut over — a
// cutover cannot be undone, and the migrator must know.
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
		n.pending, n.staging, n.ready = nil, nil, nil
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

// dumpRecords returns every record in f (nil-safe).
func dumpRecords(f *gridfile.File) []datagen.Record {
	if f == nil || f.Len() == 0 {
		return nil
	}
	rs, err := f.CellRangeSearch(f.Grid().FullRect())
	if err != nil {
		return nil
	}
	return rs.Records
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
	snap := n.lat.Snapshot()
	writeJSON(w, healthResponse{
		Node:          n.id,
		Shards:        shards,
		Records:       count,
		State:         state,
		Epoch:         cur.Epoch(),
		Pending:       pending,
		QueueDepth:    sched.QueueDepth(),
		Shed:          sched.Stats().Shed(),
		LatencyBounds: snap.Bounds,
		LatencyCounts: snap.Counts,
		LatencyCount:  snap.Count,
		LatencySum:    snap.Sum,
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
		resp.Shards = append(resp.Shards, struct {
			ID    int      `json:"id"`
			Rect  wireRect `json:"rect"`
			Nodes []int    `json:"nodes"`
		}{ID: sh.ID, Rect: toWireRect(sh.Rect), Nodes: append([]int(nil), sh.Nodes...)})
	}
	writeJSON(w, resp)
}

// BeginRebuild wipes the node's data and marks it rebuilding: a fresh
// empty grid file and scheduler replace the old stack (which is
// drained), and any in-flight migration state is dropped — a node being
// rebuilt lost its memory, staging included. Queries are refused with
// CodeUnavailable until FinishRebuild.
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
	n.pending, n.staging, n.ready = nil, nil, nil
	n.mu.Unlock()
	_, err = old.Close()
	return err
}

// RebuildInsert loads recovered records during a rebuild.
func (n *Node) RebuildInsert(recs []datagen.Record) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.rebuilding {
		return fmt.Errorf("cluster: node %d: RebuildInsert outside a rebuild", n.id)
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

// parseCell parses "1,2,0" into a validated grid coordinate.
func parseCell(s string, g *grid.Grid) (grid.Coord, error) {
	if s == "" {
		return nil, fmt.Errorf("missing cell parameter")
	}
	parts := strings.Split(s, ",")
	if len(parts) != g.K() {
		return nil, fmt.Errorf("cell %q has %d axes for %d-attribute grid", s, len(parts), g.K())
	}
	c := make(grid.Coord, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("cell %q: axis %d: %w", s, i, err)
		}
		c[i] = v
	}
	if !g.Contains(c) {
		return nil, fmt.Errorf("cell %v outside grid %v", c, g)
	}
	return c, nil
}
