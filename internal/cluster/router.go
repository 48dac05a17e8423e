package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decluster/internal/batch"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/hedge"
	"decluster/internal/obs"
	"decluster/internal/serve"
)

// errNodeTimeout marks a per-node deadline expiry. It is deliberately
// NOT context.DeadlineExceeded: the breaker machinery ignores context
// errors (a lost hedge race must not poison health), but a node that
// times out while the query is still live is exactly the signal a node
// breaker exists to integrate — a partitioned node never answers, so
// timeouts are the only error it ever produces.
var errNodeTimeout = errors.New("cluster: node deadline exceeded")

// maxEpochFollows caps how many stale-epoch adoptions one Search will
// chase before giving up: each follow re-runs the whole scatter at the
// newly learned epoch, so a cluster in pathological epoch churn turns
// into bounded retries, not livelock.
const maxEpochFollows = 3

// RouterConfig configures the scatter/gather client.
type RouterConfig struct {
	// Map is the cluster's shard map.
	Map *ShardMap
	// Endpoints holds one base URL per member: Endpoints[i] serves the
	// member Map.MemberAt(i) for i < Map.Nodes(). Entries beyond the
	// map's node count are standby members addressed by index — a node
	// waiting to join at a later epoch. At least Map.Nodes() entries
	// are required.
	Endpoints []string
	// Client optionally overrides the HTTP client (harnesses inject
	// per-test transports). Nil selects a dedicated default client.
	Client *http.Client
	// NodeDeadline bounds each attempt against one node; an attempt
	// running past it fails with errNodeTimeout and the router rotates
	// to the next replica. Zero selects 2s.
	NodeDeadline time.Duration
	// Retry governs attempts per sub-query across a shard's replicas:
	// attempt i goes to candidate i mod replicas, with exponential
	// backoff between rounds. Zero selects exec.DefaultRetry.
	Retry exec.RetryPolicy
	// Breaker configures the per-member circuit breakers (serve breaker
	// machinery, one slot per endpoint). Zero selects serve defaults.
	Breaker serve.BreakerConfig
	// HedgeAfter launches a hedge leg to the next allowed replica when
	// an attempt is still unanswered after this long. Zero disables
	// hedging.
	HedgeAfter time.Duration
	// Obs optionally records router metrics and per-query span trees.
	Obs *obs.Sink
}

// Result is a gathered range-query answer.
type Result struct {
	// Records are the qualifying records as the single-node executor
	// returns them, order included: the query's buckets row-major, each
	// bucket's records in storage order — whichever node or replica
	// answered each piece. Every copy of a bucket holds its records in
	// one order: nodes load theirs from one record stream, in stream
	// order, and every later copy (a rebuild, a migration's staging, a
	// cutover's reload) is filled verbatim from an existing copy, in its
	// order. A partial answer leaves out the uncovered pieces' buckets.
	Records []datagen.Record
	// SubQueries is how many per-shard pieces the query decomposed
	// into; Covered of them were answered.
	SubQueries, Covered int
	// Retries counts attempts beyond the first across all sub-queries.
	Retries int
	// Hedges counts hedge legs launched.
	Hedges int
	// HedgeWins counts sub-queries whose hedge leg answered first.
	HedgeWins int
	// Degraded reports some node answered from a local replica disk
	// (its own fail-stop degradation, distinct from cluster-level
	// partial results).
	Degraded bool
	// PerNode counts sub-queries answered by each member, indexed by
	// stable member ID.
	PerNode []int
	// Epoch is the shard-map epoch the answer was routed under.
	Epoch uint64
	// PendingWins counts answers taken from the opportunistic
	// pending-epoch leg of a dual-read (mid-migration only).
	PendingWins int
	// EpochFollows counts stale-epoch adoptions this query chased.
	EpochFollows int
}

// Router is the cluster's client side: it decomposes a range query into
// per-shard sub-rectangles, scatters them to shard-holding members
// concurrently, and gathers a deterministic merge — retrying across
// replicas with backoff, hedging slow attempts, breaking per member,
// and degrading to typed partial results when a shard has no live
// replica.
//
// The router follows map epochs without a coordination service: every
// request is stamped with the epoch it was routed under, a node that no
// longer serves that epoch answers with its current map, and the router
// adopts any strictly newer map and retries (capped). During a
// migration the Migrator stages the next-epoch map here, and every
// Search races an opportunistic new-epoch leg against the authoritative
// old-epoch scatter — first complete answer wins, so the handoff never
// blocks reads. Safe for concurrent use.
type Router struct {
	client   *http.Client
	deadline time.Duration
	retry    exec.RetryPolicy
	brk      *serve.Breakers
	brkSize  int
	hedge    time.Duration
	sink     *obs.Sink

	// probation holds one hedge.Now stamp per breaker slot: 0 while the
	// member is in good standing, otherwise the member is on probation and
	// the stamp is the earliest its next probe may lead (see passOver).
	// A probation lasts one breaker cooldown.
	probation []atomic.Int64
	cooldown  int64
	now       func() int64 // hedge.Now; read only for a member on probation

	mu      sync.RWMutex
	sm      *ShardMap
	pending *ShardMap
	urls    map[int]string // member ID → base URL

	mQueries, mPartial, mHedges, mHedgeWins, mRetries *obs.Counter
	mProbations                                       *obs.Counter
	mStale, mAdopts, mPendingWins                     *obs.Counter
	mAggregates, mAggErrors                           *obs.Counter
	mLatency                                          *obs.Histogram
	mNodeReqs, mNodeErrs                              *obs.CounterFamily
	mNodeLatency                                      *obs.HistogramFamily
}

// NewRouter builds a router over the shard map's members.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("cluster: router needs a shard map")
	}
	if len(cfg.Endpoints) < cfg.Map.Nodes() {
		return nil, fmt.Errorf("cluster: %d endpoints for %d nodes", len(cfg.Endpoints), cfg.Map.Nodes())
	}
	urls := make(map[int]string, len(cfg.Endpoints))
	for i, u := range cfg.Endpoints {
		if u == "" {
			return nil, fmt.Errorf("cluster: empty endpoint at index %d", i)
		}
		member := i
		if i < cfg.Map.Nodes() {
			member = cfg.Map.MemberAt(i)
		}
		urls[member] = strings.TrimRight(u, "/")
	}
	brk, err := serve.NewBreakers(cfg.Breaker, len(cfg.Endpoints))
	if err != nil {
		return nil, err
	}
	if cfg.NodeDeadline <= 0 {
		cfg.NodeDeadline = 2 * time.Second
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = exec.DefaultRetry()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		sm: cfg.Map, urls: urls, client: client,
		deadline: cfg.NodeDeadline, retry: cfg.Retry,
		brk: brk, brkSize: len(cfg.Endpoints),
		hedge: cfg.HedgeAfter, sink: cfg.Obs,
		probation: make([]atomic.Int64, len(cfg.Endpoints)),
		cooldown:  int64(brk.Cooldown()), now: hedge.Now,
	}
	if s := cfg.Obs; s != nil {
		r := s.Registry()
		rt.mQueries = r.Counter("cluster.router.queries")
		rt.mPartial = r.Counter("cluster.router.partial")
		rt.mHedges = r.Counter("cluster.router.hedges")
		rt.mHedgeWins = r.Counter("cluster.router.hedgewins")
		rt.mProbations = r.Counter("cluster.router.probations")
		rt.mRetries = r.Counter("cluster.router.retries")
		rt.mStale = r.Counter("cluster.router.stale")
		rt.mAdopts = r.Counter("cluster.router.adopts")
		rt.mPendingWins = r.Counter("cluster.router.pendingwins")
		rt.mAggregates = r.Counter("cluster.router.aggregates")
		rt.mAggErrors = r.Counter("cluster.router.aggregate.errors")
		rt.mLatency = r.Histogram("cluster.router.latency")
		n := len(cfg.Endpoints)
		rt.mNodeReqs = r.CounterFamily("cluster.node.requests", "node", n)
		rt.mNodeErrs = r.CounterFamily("cluster.node.errors", "node", n)
		rt.mNodeLatency = r.HistogramFamily("cluster.node.latency", "node", n)
		brk.AttachObserver(s, "cluster.node.breaker")
	}
	return rt, nil
}

// Breakers exposes the per-member breaker set (harness and tests).
func (rt *Router) Breakers() *serve.Breakers { return rt.brk }

// OnProbation lists the members on probation: overtaken by a hedge as a
// sub-query's lead and not yet answering as one again (see passOver).
// Probation is routing only — a member on it keeps its breaker state.
func (rt *Router) OnProbation() []int {
	var out []int
	for m := range rt.probation {
		if rt.onProbation(m) {
			out = append(out, m)
		}
	}
	return out
}

// Epoch returns the epoch the router currently routes under.
func (rt *Router) Epoch() uint64 { return rt.Map().Epoch() }

// Map returns the shard map the router currently routes under.
func (rt *Router) Map() *ShardMap {
	sm, _ := rt.view()
	return sm
}

// Adopt installs a strictly newer map as the routing map, returning
// whether it was adopted. A pending map at or below the new epoch is
// cleared — the migration it belonged to has concluded.
func (rt *Router) Adopt(sm *ShardMap) bool {
	if sm == nil {
		return false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if sm.Epoch() <= rt.sm.Epoch() {
		return false
	}
	rt.sm = sm
	if rt.pending != nil && rt.pending.Epoch() <= sm.Epoch() {
		rt.pending = nil
	}
	if rt.mAdopts != nil {
		rt.mAdopts.Inc()
	}
	return true
}

// StagePending installs the next-epoch map for dual-read: until Adopt
// or ClearPending, every Search races an opportunistic leg at this
// epoch against the authoritative current-epoch scatter.
func (rt *Router) StagePending(sm *ShardMap) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if sm != nil && sm.Epoch() <= rt.sm.Epoch() {
		return
	}
	rt.pending = sm
}

// ClearPending drops the staged dual-read map (migration aborted).
func (rt *Router) ClearPending() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.pending = nil
}

// SetEndpoint registers (or replaces) a member's base URL — how a
// standby joiner becomes addressable before the epoch that includes it.
func (rt *Router) SetEndpoint(member int, url string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.urls[member] = strings.TrimRight(url, "/")
}

// view snapshots the routing state.
func (rt *Router) view() (sm, pending *ShardMap) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.sm, rt.pending
}

// urlOf resolves a member's endpoint.
func (rt *Router) urlOf(member int) (string, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	u, ok := rt.urls[member]
	return u, ok
}

// allowMember consults the member's breaker; members beyond the breaker
// set (joined after construction) are always allowed.
func (rt *Router) allowMember(m int) bool {
	if m < 0 || m >= rt.brkSize {
		return true
	}
	return rt.brk.Allow(m)
}

// breakerCountable classifies an attempt error for node health. An
// error the node itself produced while answering — overload shedding,
// draining, local unavailability, corruption, a stale epoch, a routing
// miss — proves the node is alive and must not accumulate toward a
// trip; only silence (the per-node deadline) and transport failures
// indict the node itself. This is what lets a healed partition recover
// promptly: during the partition only timeouts counted, so the breaker
// opens, and the first successful half-open probe after heal closes it
// — while a node merely shedding load under overload never opens at
// all.
func breakerCountable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, serve.ErrOverloaded),
		errors.Is(err, serve.ErrClosed),
		errors.Is(err, fault.ErrUnavailable),
		errors.Is(err, gridfile.ErrCorrupt),
		errors.Is(err, ErrNotHosted),
		errors.Is(err, ErrStaleEpoch),
		errors.Is(err, ErrPartial):
		return false
	}
	return true
}

// retryTransient reports whether a failure says the node is merely
// busy — it timed out or shed load and may well answer the next round —
// as opposed to down (transport failure) or refusing for a typed
// reason. preferLegError uses it to rank leg errors: "one replica is
// slow" must not be masked by "the other replica is dead".
func retryTransient(err error) bool {
	return errors.Is(err, errNodeTimeout) ||
		errors.Is(err, serve.ErrOverloaded) ||
		errors.Is(err, serve.ErrClosed)
}

// legOp is what distinguishes one kind of scatter from another: where a
// leg is sent, what it carries and — through R — what comes back. The
// scatter machinery below never looks at which op it serves.
type legOp[R any] struct {
	path  string // endpoint under the member's base URL
	span  string // sub-query span label
	limit int64  // response size cap
	body  func(rect grid.Rect, epoch uint64, prio int) any
	// vet, when set, checks a decoded answer against the rect it answers;
	// an answer it refuses fails the leg like a bad body.
	vet func(resp *R, rect grid.Rect) error
}

// searchOp's legs come back as views over pooled bodies, which searchEpoch
// releases after the merge. Request bodies view the rect: only marshalled.
// A leg must count its records per bucket of the rect it was asked for:
// those counts are what gather walks.
var searchOp = legOp[pageLeg]{
	path: "/v1/query", span: "shard", limit: recordPayloadLimit,
	body: func(rect grid.Rect, epoch uint64, prio int) any {
		return queryRequest{Rect: wireRect{Lo: rect.Lo, Hi: rect.Hi}, Epoch: epoch, Priority: prio}
	},
	vet: func(leg *pageLeg, rect grid.Rect) error {
		if !leg.counted || leg.buckets != rect.Volume() {
			leg.release()
			return fmt.Errorf("cluster: malformed answer for %v: %d buckets, counted %v", rect, leg.buckets, leg.counted)
		}
		return nil
	},
}

// aggregateOp is the leg op of one aggregate query (aggregates bypass
// scheduler admission, so the priority goes unsent).
func aggregateOp(q batch.AggregateQuery) legOp[aggregateResponse] {
	return legOp[aggregateResponse]{
		path: "/v1/aggregate", span: "agg shard", limit: smallPayloadLimit,
		body: func(rect grid.Rect, epoch uint64, _ int) any {
			return aggregateRequest{Rect: wireRect{Lo: rect.Lo, Hi: rect.Hi}, Op: q.Op.String(), Attr: q.Attr, Epoch: epoch}
		},
	}
}

// subOutcome is one sub-query's answer (resp is nil iff err is set).
type subOutcome[R any] struct {
	resp            *R
	node            int // answering member
	retries, hedges int
	hedgeWon        bool
	err             error
}

// gathered is one scatter round: the sub-queries and every one's outcome,
// in decomposition order, plus the round's attempt accounting.
type gathered[R any] struct {
	subs                       []SubQuery
	outs                       []subOutcome[R]
	retries, hedges, hedgeWins int
}

// followBackoff paces stale-epoch follows: 1ms doubling per follow,
// capped at 8ms — enough to let a cutover wave settle, small enough to
// stay invisible in p99.
var followBackoff = exec.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}

// followEpochs runs one query round under the current routing view and,
// while the round fails on a stale epoch with a strictly newer map
// attached, adopts that map and re-runs — up to maxEpochFollows times,
// followBackoff apart. It returns the last round's answer and how many
// adoptions it chased.
func followEpochs[T any](ctx context.Context, rt *Router, root *obs.Span, round func(cur, pending *ShardMap) (T, error)) (T, int, error) {
	for follow := 0; ; follow++ {
		cur, pending := rt.view()
		res, err := round(cur, pending)
		var stale *StaleEpochError
		if errors.As(err, &stale) {
			rt.mStale.Inc()
			if stale.Map != nil && stale.Map.Epoch() > cur.Epoch() && follow < maxEpochFollows {
				rt.Adopt(stale.Map)
				root.Annotate(fmt.Sprintf("stale epoch %d, adopted %d", cur.Epoch(), stale.Map.Epoch()))
				if berr := followBackoff.Wait(ctx, follow+1); berr != nil {
					var zero T
					return zero, follow, berr
				}
				continue
			}
		}
		return res, follow, err
	}
}

// Search answers a range query across the cluster. On full coverage it
// returns (result, nil). When some shards have no live replica it
// returns the records it did gather alongside a *PartialError naming
// the exact uncovered sub-rectangles — errors.Is(err, ErrPartial).
// A node reporting the routing map stale makes the router adopt the
// node's newer map and re-scatter, up to maxEpochFollows times with
// capped backoff. Context cancellation promptly aborts every in-flight
// sub-query and hedge leg and returns ctx.Err().
func (rt *Router) Search(ctx context.Context, q grid.Rect) (*Result, error) {
	rt.mQueries.Inc()
	start := time.Now()
	var root *obs.Span
	if rt.sink != nil && rt.sink.Tracing() {
		tr := rt.sink.StartTrace("cluster " + q.String())
		root = tr.Root()
		defer rt.sink.FinishTrace(tr)
	}
	defer func() { rt.mLatency.Observe(time.Since(start)) }()

	res, follows, err := followEpochs(ctx, rt, root, func(cur, pending *ShardMap) (*Result, error) {
		return rt.searchView(ctx, q, cur, pending, root)
	})
	if res != nil {
		res.EpochFollows = follows
	}
	return res, err
}

// searchView runs one scatter round: just the authoritative epoch, or —
// when a pending map is staged — a dual-read race between the
// authoritative old-epoch scatter and an opportunistic new-epoch leg.
// The first full success wins; the pending leg failing for any reason
// (buckets still in flight, epoch gone) silently falls back to the
// authoritative answer. Records are immutable, so whichever epoch
// answers, the answer is the same — racing trades no correctness for
// handoff latency.
func (rt *Router) searchView(ctx context.Context, q grid.Rect, cur, pending *ShardMap, root *obs.Span) (*Result, error) {
	if pending == nil {
		return rt.searchEpoch(ctx, q, cur, root, true, 0)
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type legOut struct {
		res     *Result
		err     error
		pending bool
	}
	out := make(chan legOut, 2)
	go func() {
		res, err := rt.searchEpoch(sctx, q, cur, root, true, 0)
		out <- legOut{res, err, false}
	}()
	go func() {
		// The speculative leg rides at migration priority: under load the
		// nodes shed it (and the router falls back to the authoritative
		// answer) instead of letting a doubled scatter starve foreground
		// reads.
		res, err := rt.searchEpoch(sctx, q, pending, root, false, serve.MigrationPriority)
		out <- legOut{res, err, true}
	}()
	var authoritative legOut
	for i := 0; i < 2; i++ {
		o := <-out
		if o.err == nil {
			if o.pending {
				rt.mPendingWins.Inc()
				o.res.PendingWins = 1
			}
			// The deferred cancel aborts the losing leg; the buffered
			// channel holds its send.
			return o.res, nil
		}
		if !o.pending {
			authoritative = o
		}
	}
	// Both legs failed; the authoritative epoch's verdict stands (the
	// pending leg is allowed to fail mid-migration, so its error says
	// nothing about the query).
	return authoritative.res, authoritative.err
}

// searchEpoch scatters q under one map and merges the gathered records.
// observe controls whether router-level outcome metrics are recorded:
// the opportunistic dual-read leg stays out of the books, its failures
// are expected mid-migration. prio is the admission priority every
// sub-query is stamped with (0 foreground; the dual-read leg uses
// serve.MigrationPriority).
func (rt *Router) searchEpoch(ctx context.Context, q grid.Rect, sm *ShardMap, parent *obs.Span, observe bool, prio int) (*Result, error) {
	g, err := scatter(ctx, rt, searchOp, q, sm, parent, observe, prio)
	if g == nil {
		return nil, err
	}
	// Whatever this round returns — full, partial, a stale epoch to follow
	// — the answer below is a copy, so the leg bodies go back to the pool.
	defer func() {
		for _, o := range g.outs {
			o.resp.release() // nil for a failed leg
		}
	}()
	res := &Result{
		SubQueries: len(g.outs), Retries: g.retries, Hedges: g.hedges, HedgeWins: g.hedgeWins,
		PerNode: make([]int, sm.MaxMember()+1), Epoch: sm.Epoch(),
	}
	for _, o := range g.outs {
		if o.err == nil {
			res.Covered++
			res.PerNode[o.node]++ // a shard member, so at most sm.MaxMember()
			res.Degraded = res.Degraded || o.resp.degraded
		}
	}
	res.Records = gather(q, g.subs, g.outs)
	var pe *PartialError
	if errors.As(err, &pe) {
		if observe {
			rt.mPartial.Inc()
		}
		parent.Annotate(fmt.Sprintf("partial, %d uncovered (first: %v)", len(pe.Uncovered), pe.Cause))
	}
	return res, err
}

// gather builds the answer in the single-node executor's order: q's
// buckets row-major, each bucket's records in storage order. Each
// answered leg holds its sub-rectangle's buckets in that same order and
// counts their records, so the walk goes along q in runs on the last
// axis — a run is the next buckets of the one sub-rectangle covering it,
// and its records are that leg's next records. A failed leg's runs are
// skipped. What is allocated is what the caller keeps — the records and
// one value slab — and every record is decoded once, in sequence, into
// its place. The walk consumes the legs' views.
func gather(q grid.Rect, subs []SubQuery, outs []subOutcome[pageLeg]) []datagen.Record {
	total, values := 0, 0
	for _, o := range outs {
		if o.err == nil {
			total, values = total+o.resp.n, values+o.resp.n*o.resp.k
		}
	}
	records, slab := make([]datagen.Record, 0, total), make([]float64, values)
	last := len(q.Lo) - 1
	var scratch [8]int
	cell := append(scratch[:0], q.Lo...) // the walk's position; cell[last] is a run's start
	for {
		for cell[last] <= q.Hi[last] {
			i := slices.IndexFunc(subs, func(sq SubQuery) bool { return sq.Rect.Contains(cell) })
			end := subs[i].Rect.Hi[last]
			if o := outs[i]; o.err == nil {
				f := &o.resp.frame
				for range f.take(end - cell[last] + 1) {
					records = append(records, f.next(slab[:f.k:f.k]))
					slab = slab[f.k:]
				}
			}
			cell[last] = end + 1
		}
		cell[last] = q.Lo[last]
		i := last - 1
		for ; i >= 0; i-- {
			if cell[i]++; cell[i] <= q.Hi[i] {
				break
			}
			cell[i] = q.Lo[i]
		}
		if i < 0 {
			return records
		}
	}
}

// scatter decomposes q under sm, runs every per-shard sub-query
// concurrently, and gathers the outcomes. With every piece answered it
// returns (g, nil). With pieces missing it returns what was gathered
// alongside a *StaleEpochError when any node gossiped a newer epoch — the
// follow loop should adopt and re-scatter rather than surface a partial
// answer of a dead epoch — and a *PartialError naming the uncovered
// sub-rectangles otherwise. A cancelled caller gets (nil, ctx.Err()),
// not a synthetic partial result. Each leg's HTTP request derives from
// ctx, so a caller giving up aborts everything in flight.
func scatter[R any](ctx context.Context, rt *Router, op legOp[R], q grid.Rect, sm *ShardMap, parent *obs.Span, observe bool, prio int) (*gathered[R], error) {
	subs, err := sm.Decompose(q)
	if err != nil {
		return nil, err
	}
	g := &gathered[R]{subs: subs, outs: make([]subOutcome[R], len(subs))}
	var wg sync.WaitGroup
	for i, sq := range subs {
		wg.Add(1)
		go func(i int, sq SubQuery) {
			defer wg.Done()
			g.outs[i] = runSub(ctx, rt, op, sq, sm, parent, prio)
		}(i, sq)
	}
	wg.Wait()

	var missed []SubQuery
	var subErr error
	var stale *StaleEpochError
	for i, o := range g.outs {
		g.retries += o.retries
		g.hedges += o.hedges
		if o.hedgeWon {
			g.hedgeWins++
		}
		if o.err == nil {
			continue
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var se *StaleEpochError
		if errors.As(o.err, &se) && (stale == nil || se.NodeEpoch > stale.NodeEpoch) {
			stale = se
		}
		missed = append(missed, subs[i])
		if subErr == nil {
			subErr = o.err
		}
	}
	if observe {
		rt.mRetries.Add(uint64(g.retries))
		rt.mHedges.Add(uint64(g.hedges))
		rt.mHedgeWins.Add(uint64(g.hedgeWins))
	}
	switch {
	case stale != nil:
		return g, stale
	case len(missed) > 0:
		return g, newPartialError(missed, subErr)
	}
	return g, nil
}

// runSub answers one sub-query: Retry.MaxAttempts attempts, each
// against the next replica in rotation (skipping open breakers when a
// closed one exists, and on the first attempt members on probation),
// each a race (one hedge.Racer serves them all) against hedgeCandidate's
// replica, Retry.Wait apart. A lead overtaken by its timed hedge goes on
// probation (settleLead). Candidates are stable member IDs.
//
// The configured attempt budget is a floor, not a ceiling: when the
// caller set a deadline, that deadline is the real budget, and node
// faults keep the backoff-paced rotation going until it expires — a
// timeout or load shedding are conditions the next round may not see.
// Rotation matters even for hard transport failures — a crashed
// primary's EOFs trip its breaker within a round or two, after which
// pickNode steers the remaining attempts at the surviving replicas.
// Without a deadline the budget exhausts and the sub-query degrades to
// a partial result, so a shard with no live replica fails fast. Only
// typed refusals (below) prove another round is pointless.
func runSub[R any](ctx context.Context, rt *Router, op legOp[R], sq SubQuery, sm *ShardMap, parent *obs.Span, prio int) subOutcome[R] {
	var span *obs.Span // labels are formatted only for a live trace
	if parent != nil {
		span = parent.Child(fmt.Sprintf("%s %d %v", op.span, sq.Shard, sq.Rect))
	}
	leg := func(lctx context.Context, node int, hedgeLeg bool) (*R, error) {
		var s *obs.Span
		if span != nil {
			kind := "leg"
			if hedgeLeg {
				kind = "hedge"
			}
			s = span.Child(fmt.Sprintf("%s node %d", kind, node))
		}
		resp, err := callNode(lctx, rt, op, node, sq.Rect, sm.Epoch(), prio)
		s.FinishErr(err)
		if !hedgeLeg {
			// A lead whose leg context was cancelled while the sub-query
			// lives was overtaken by its timed hedge.
			rt.settleLead(node, err == nil, err != nil && lctx.Err() != nil && ctx.Err() == nil)
		}
		return resp, err
	}
	var racer hedge.Racer[*R]
	defer racer.Release()
	candidates := sm.ShardMembers(sq.Shard)
	var o subOutcome[R]
	_, hasDeadline := ctx.Deadline()
	var lastErr error
	attempt := 0
	for ; attempt < rt.retry.MaxAttempts || hasDeadline; attempt++ {
		if attempt > 0 {
			o.retries++
			if err := rt.retry.Wait(ctx, attempt); err != nil {
				o.err = err
				span.FinishErr(err)
				return o
			}
		}
		node := rt.pickNode(candidates, attempt)
		backup, after := rt.hedgeCandidate(candidates, node)
		resp, winner, hedged, err := racer.Race(ctx, hedge.Now(), after, node, backup, leg, preferLegError)
		if hedged {
			o.hedges++
		}
		if err == nil {
			o.resp, o.node = resp, winner
			o.hedgeWon = hedged && winner == backup
			if span != nil {
				span.Annotate(fmt.Sprintf("node %d", winner))
			}
			span.Finish()
			return o
		}
		if ctx.Err() != nil {
			o.err = ctx.Err()
			span.FinishErr(o.err)
			return o
		}
		lastErr = err
		if errors.Is(err, ErrNotHosted) || errors.Is(err, ErrStaleEpoch) {
			// Not a node fault: no replica will answer differently for a
			// routing bug, and a stale epoch needs adoption, not retry.
			break
		}
	}
	o.err = fmt.Errorf("cluster: %s %d exhausted %d attempts: %w", op.span, sq.Shard, attempt, lastErr)
	span.FinishErr(o.err)
	return o
}

// pickNode returns the attempt's replica: rotation position attempt mod
// replicas, advanced past open breakers when any candidate is allowed
// (when every breaker is open the rotation choice stands — a probe has
// to go somewhere or an open breaker could never heal). The first
// attempt is also advanced past members on probation (passOver) when an
// allowed holder in good standing exists; when none does, the first
// allowed holder leads anyway — probation never leaves a sub-query
// without a lead it could have had.
func (rt *Router) pickNode(candidates []int, attempt int) int {
	n := len(candidates)
	lead := -1
	for off := 0; off < n; off++ {
		c := candidates[(attempt+off)%n]
		if !rt.allowMember(c) {
			continue
		}
		if attempt > 0 || !rt.passOver(c) {
			return c
		}
		if lead < 0 {
			lead = c
		}
	}
	if lead >= 0 {
		return lead
	}
	return candidates[attempt%n]
}

// hedgeCandidate returns the replica a hedge leg should target — the
// first allowed candidate differing from primary, preferring one not on
// probation, or -1 when hedging is off or none exists (single replica,
// everything else broken) — and the delay to arm it with: HedgeAfter
// when the shared gate (hedge.Worth, on the members' smoothed latencies)
// says a timed hedge is worth issuing, 0 when it is not or the backup is
// on probation. The gate is what keeps hedging from amplifying overload:
// under a flash crowd slow → hedge → slower tips a saturated-but-stable
// cluster into breaker trips and retry storms, so once every replica of
// a shard reports sick latency the router stops hedging that shard and
// lets single legs drain the queues. A closed gate, like probation,
// still leaves the backup as the failover target of a leg that fails
// outright. Probation ranks holders against one in good standing: a
// primary on probation itself (pickNode found no better lead) races
// its backup as if nobody were on probation.
func (rt *Router) hedgeCandidate(candidates []int, primary int) (backup int, after time.Duration) {
	if rt.hedge <= 0 {
		return -1, 0
	}
	backup = -1
	suspect := rt.onProbation(primary)
	for _, c := range candidates {
		if c == primary || !rt.allowMember(c) {
			continue
		}
		if !suspect && rt.onProbation(c) {
			if backup < 0 {
				backup = c
			}
			continue
		}
		if hedge.Worth(rt.hedge, rt.brk.EWMALatency(primary), rt.brk.EWMALatency(c)) {
			return c, rt.hedge
		}
		return c, 0
	}
	return backup, 0
}

// probationOf returns member m's probation stamp; nil for a member
// beyond the breaker set (joined after construction), which is never on
// probation.
func (rt *Router) probationOf(m int) *atomic.Int64 {
	if m < 0 || m >= len(rt.probation) {
		return nil
	}
	return &rt.probation[m]
}

// onProbation reports whether member m is on probation: one atomic load.
func (rt *Router) onProbation(m int) bool {
	p := rt.probationOf(m)
	return p != nil && p.Load() != 0
}

// passOver reports whether a first attempt should look past member m for
// its lead. A member in good standing costs one atomic load and no clock
// read. A member on probation is passed over until its stamp comes due;
// then exactly one caller wins a compare-and-swap that pushes the stamp
// a cooldown out and leads with m — the probe — and every other caller
// keeps away for that cooldown.
func (rt *Router) passOver(m int) bool {
	p := rt.probationOf(m)
	if p == nil {
		return false
	}
	due := p.Load()
	if due == 0 {
		return false
	}
	now := rt.now()
	return now < due || !p.CompareAndSwap(due, now+rt.cooldown)
}

// settleLead books how member m's lead leg ended. Overtaken by its timed
// hedge, m goes on probation — or stays on it — for one cooldown: the
// router learns its straggler from the one race that proves it, because
// the cancelled leg leaves no latency sample. Answering, m is in good
// standing again.
func (rt *Router) settleLead(m int, won, overtaken bool) {
	p := rt.probationOf(m)
	switch {
	case p == nil:
	case won:
		if due := p.Load(); due != 0 {
			p.CompareAndSwap(due, 0)
		}
	case overtaken:
		if p.Swap(rt.now()+rt.cooldown) == 0 {
			rt.mProbations.Inc()
		}
	}
}

// preferLegError picks which failed leg's error a doubly failed hedged
// race reports. A stale-epoch error always wins — it carries the newer map
// the router must adopt. Otherwise a transient failure (timeout,
// shedding) wins over a fast refusal: the retry loop reads the verdict
// to decide whether another rotation is worthwhile, and "one replica is
// merely slow" must not be masked by "the other replica is down".
func preferLegError(cur, next error) error {
	switch {
	case errors.Is(cur, ErrStaleEpoch):
		return cur
	case errors.Is(next, ErrStaleEpoch):
		return next
	case !retryTransient(cur) && retryTransient(next):
		return next
	}
	return cur
}

// callNode performs one attempt against a member, bounded by the
// per-node deadline on top of ctx (the leg's context: hedge-race and
// caller cancellation both arrive through it). Node health only
// integrates errors that indict the node itself — see breakerCountable.
func callNode[R any](ctx context.Context, rt *Router, op legOp[R], node int, rect grid.Rect, epoch uint64, prio int) (*R, error) {
	resp := new(R)
	start := time.Now()
	var err error
	if url, ok := rt.urlOf(node); ok {
		err = exchange(ctx, rt.client, rt.deadline, url+op.path, op.body(rect, epoch, prio), resp, op.limit)
		if err == nil && op.vet != nil {
			err = op.vet(resp, rect)
		}
	} else {
		err = fmt.Errorf("cluster: no endpoint for member %d", node)
	}
	lat := time.Since(start)
	if err != nil {
		// A deadline expiry with the leg still live is the node's fault;
		// surface it as a breaker-countable error.
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			err = fmt.Errorf("%w: node %d after %v", errNodeTimeout, node, rt.deadline)
		}
		resp = nil
	}
	if err == nil || breakerCountable(err) {
		rt.brk.Observe(node, lat, err)
	}
	rt.nodeObserve(node, lat, err)
	return resp, err
}

// sleepCtx sleeps d (not at all when d <= 0), honouring cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// AggregateResult is a gathered cluster aggregate: the merged
// batch-layer answer plus routing metadata.
type AggregateResult struct {
	batch.AggregateResult
	// SubQueries is how many per-shard pieces the rectangle decomposed
	// into; all of them were answered (a partial aggregate would be a
	// silently wrong number, so partial coverage is an error instead).
	SubQueries int
	// Retries counts attempts beyond the first across all sub-queries.
	Retries int
	// Epoch is the shard-map epoch the answer was routed under.
	Epoch uint64
	// EpochFollows counts stale-epoch adoptions this query chased.
	EpochFollows int
}

// Aggregate answers COUNT/SUM/MIN/MAX over a rectangle across the
// cluster: the rect decomposes into per-shard pieces, each piece is
// answered by a shard member's disk-free summed-area index through the
// same scatter as Search (rotation, backoff, hedging, breakers), and
// the partials merge exactly. Only the current epoch is asked — nodes
// refuse aggregates at a pending epoch. Unlike Search, any uncovered
// piece fails the whole query: a partial sum or count is not a degraded
// answer, it is a wrong one — the *PartialError names the uncovered
// sub-rectangles. Stale-epoch adoption follows the same gossip path as
// Search.
func (rt *Router) Aggregate(ctx context.Context, q batch.AggregateQuery) (*AggregateResult, error) {
	rt.mAggregates.Inc()
	start := time.Now()
	var root *obs.Span
	if rt.sink != nil && rt.sink.Tracing() {
		tr := rt.sink.StartTrace(fmt.Sprintf("cluster %s(%d) %v", q.Op, q.Attr, q.Rect))
		root = tr.Root()
		defer rt.sink.FinishTrace(tr)
	}
	defer func() { rt.mLatency.Observe(time.Since(start)) }()

	res, follows, err := followEpochs(ctx, rt, root, func(cur, _ *ShardMap) (*AggregateResult, error) {
		g, err := scatter(ctx, rt, aggregateOp(q), q.Rect, cur, root, true, 0)
		if err != nil {
			var pe *PartialError
			if errors.As(err, &pe) {
				root.Annotate(fmt.Sprintf("aggregate refused, %d uncovered (first: %v)", len(pe.Uncovered), pe.Cause))
			}
			return nil, err
		}
		parts := make([]batch.AggregateResult, len(g.outs))
		for i, o := range g.outs {
			r := o.resp
			parts[i] = batch.AggregateResult{
				Op: q.Op, Attr: q.Attr, Count: r.Count, Sum: r.Sum, Min: r.Min, Max: r.Max, Buckets: r.Buckets,
			}
		}
		return &AggregateResult{
			AggregateResult: batch.MergeAggregates(q.Op, q.Attr, parts),
			SubQueries:      len(g.outs), Retries: g.retries, Epoch: cur.Epoch(),
		}, nil
	})
	if err != nil {
		rt.mAggErrors.Inc()
		return nil, err
	}
	res.EpochFollows = follows
	return res, nil
}

// nodeObserve records one attempt against a member in the per-member
// metric families (absent without an obs sink).
func (rt *Router) nodeObserve(node int, lat time.Duration, err error) {
	if rt.mNodeReqs == nil {
		return
	}
	rt.mNodeReqs.At(node).Inc()
	rt.mNodeLatency.At(node).Observe(lat)
	if err != nil {
		rt.mNodeErrs.At(node).Inc()
	}
}
