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

	"decluster/internal/aggregate"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/grid"
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
	// to the next replica. Zero selects 2s; negative is an error.
	NodeDeadline time.Duration
	// Retry governs attempts per sub-query across a shard's replicas:
	// attempt i goes to candidate i mod replicas, with exponential
	// backoff between rounds. Zero MaxAttempts selects
	// exec.DefaultRetry; a negative field is an error.
	Retry exec.RetryPolicy
	// Breaker configures the per-member circuit breakers (serve breaker
	// machinery, one slot per endpoint). Zero selects serve defaults.
	Breaker serve.BreakerConfig
	// HedgeAfter launches a hedge leg to the next allowed replica when
	// an attempt is still unanswered after this long and the hedge gate
	// (serve.Breakers.Backup), asked at the attempt's start, gave it a
	// delay. With hedging on, an attempt that fails outright fails over
	// to that replica at once. Zero disables both; negative is an error.
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
	// order, and every later copy (a rebuild, a migration's ingest, a
	// cutover's reload) is filled verbatim from an existing copy, in its
	// order. A partial answer leaves out the uncovered pieces' buckets.
	Records []datagen.Record
	// SubQueries is how many per-shard pieces the query decomposed
	// into; Covered of them were answered.
	SubQueries, Covered int
	// Retries counts attempts beyond the first across all sub-queries.
	Retries int
	// Hedges counts the attempts that launched a second leg to a backup
	// replica: a timed hedge beside a slow attempt, or the at-once
	// failover of an attempt that failed outright. An attempt whose
	// hedge gate gave no delay launches no timed hedge, and one that
	// answers inside the delay launches none at all.
	Hedges int
	// HedgeWins counts sub-queries answered by such a second leg: a
	// timed hedge that answered first, or a failover that answered.
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
// adopts any strictly newer map and retries (capped). A router reads
// only the epoch it routes under: mid-migration that is the old epoch,
// authoritative until cutover, and the Migrator has it adopt the new map
// after the last cutover ack. Safe for concurrent use.
type Router struct {
	client   *http.Client
	deadline time.Duration
	retry    exec.RetryPolicy
	brk      *serve.Breakers // health and the holder choice, one slot per endpoint
	hedge    time.Duration
	sink     *obs.Sink
	routes   map[int]*[2]route // member ID → its queryRoute and aggregateRoute, fixed at NewRouter
	turn     atomic.Uint32     // rotates aggregate covers (planCover)

	mu sync.RWMutex
	sm *ShardMap

	mQueries, mPartial, mHedges, mHedgeWins, mRetries *obs.Counter
	mProbations, mStale, mAdopts                      *obs.Counter
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
	switch {
	case cfg.NodeDeadline < 0:
		return nil, fmt.Errorf("cluster: negative NodeDeadline %v", cfg.NodeDeadline)
	case cfg.HedgeAfter < 0:
		return nil, fmt.Errorf("cluster: negative HedgeAfter %v", cfg.HedgeAfter)
	case cfg.Retry.MaxAttempts < 0:
		return nil, fmt.Errorf("cluster: negative Retry.MaxAttempts %d", cfg.Retry.MaxAttempts)
	case cfg.Retry.BaseBackoff < 0:
		return nil, fmt.Errorf("cluster: negative Retry.BaseBackoff %v", cfg.Retry.BaseBackoff)
	case cfg.Retry.MaxBackoff < 0:
		return nil, fmt.Errorf("cluster: negative Retry.MaxBackoff %v", cfg.Retry.MaxBackoff)
	}
	routes := make(map[int]*[2]route, len(cfg.Endpoints))
	for i, u := range cfg.Endpoints {
		if u == "" {
			return nil, fmt.Errorf("cluster: empty endpoint at index %d", i)
		}
		member := i
		if i < cfg.Map.Nodes() {
			member = cfg.Map.MemberAt(i)
		}
		var rs [2]route
		for r, path := range readPaths {
			var err error
			if rs[r], err = newRoute(strings.TrimRight(u, "/")+path, requestContentType); err != nil {
				return nil, err
			}
		}
		routes[member] = &rs
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
		sm: cfg.Map, routes: routes, client: client,
		deadline: cfg.NodeDeadline, retry: cfg.Retry,
		brk: brk, hedge: cfg.HedgeAfter, sink: cfg.Obs,
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

// Breakers exposes the per-member breaker set: the autopilot watcher's
// breakers-open fuse, EN's trip and open-breaker counts and tests read it.
func (rt *Router) Breakers() *serve.Breakers { return rt.brk }

// OnProbation lists the members on probation (serve.Breakers.OnProbation).
func (rt *Router) OnProbation() []int { return rt.brk.OnProbation() }

// Epoch returns the epoch the router currently routes under.
func (rt *Router) Epoch() uint64 { return rt.Map().Epoch() }

// Map returns the shard map the router currently routes under.
func (rt *Router) Map() *ShardMap {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.sm
}

// Adopt installs a strictly newer map as the routing map, returning
// whether it was adopted.
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
	if rt.mAdopts != nil {
		rt.mAdopts.Inc()
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

// The two read routes, as legOp.route names them.
const (
	queryRoute = iota
	aggregateRoute
)

var readPaths = [...]string{queryRoute: "/v1/query", aggregateRoute: "/v1/aggregate"}

// legOp is what distinguishes one kind of scatter from another: how its
// legs are planned, where a leg is sent, what it carries and — through R
// — what comes back. The scatter machinery below never looks at which op
// it serves.
type legOp[R any] struct {
	route int         // queryRoute or aggregateRoute
	cover bool        // planCover's legs, one per covering holder; else planShards's, one per piece
	span  string      // sub-query span label
	limit int64       // response size cap
	req   readRequest // every leg's request, but for the rects and epoch each leg fills in
	// vet checks a decoded answer against the rects it answers; an answer
	// it refuses fails the leg like a bad body.
	vet func(resp *R, rects []grid.Rect) error
}

// searchOp's legs come back as views over pooled bodies, which searchEpoch
// releases after the merge. A leg must count its records per bucket of
// the rect it was asked for: those counts are what gather walks.
var searchOp = legOp[pageLeg]{
	route: queryRoute, span: "shard", limit: recordPayloadLimit,
	vet: func(leg *pageLeg, rects []grid.Rect) error {
		if !leg.counted || leg.buckets != rects[0].Volume() {
			leg.release()
			return fmt.Errorf("cluster: malformed answer for %v: %d buckets, counted %v", rects[0], leg.buckets, leg.counted)
		}
		return nil
	},
}

// aggregateOp is the leg op of one aggregate query. A leg must answer the
// op asked, over every bucket of its rects (a node's index always covers
// a rect's volume): merged, any other answer is a wrong number.
func aggregateOp(q aggregate.AggregateQuery) legOp[aggregateResponse] {
	return legOp[aggregateResponse]{
		route: aggregateRoute, cover: true, span: "agg shard", limit: smallPayloadLimit,
		req: readRequest{Kind: byte(q.Op) + 1, Attr: q.Attr},
		vet: func(a *aggregateResponse, rects []grid.Rect) error {
			buckets := 0
			for _, r := range rects {
				buckets += r.Volume()
			}
			if a.Op != q.Op || a.Buckets != buckets {
				return fmt.Errorf("cluster: malformed answer for %v: %s over %d buckets, asked %s over %d", rects, a.Op, a.Buckets, q.Op, buckets)
			}
			return nil
		},
	}
}

// subOutcome is one leg's answer (resp is nil iff err is set): of a
// one-piece leg, or of a merged leg that answered whole. A zero outcome,
// subs nil, is an empty slot.
type subOutcome[R any] struct {
	subs            []SubQuery // the pieces it answers
	resp            *R
	node            int // answering member
	retries, hedges int
	hedgeWon        bool
	err             error
}

// gathered is one scatter round: the sub-queries in decomposition order,
// and one slot per sub-query for the outcomes, plus the round's attempt
// accounting. A leg owns the slots from its first, one per piece: a
// merged leg that answers fills the first, one split back fills them
// all. A search's legs are one per piece in decomposition order, so its
// outcomes line up with subs.
type gathered[R any] struct {
	subs                       []SubQuery
	outs                       []subOutcome[R]
	retries, hedges, hedgeWins int
}

// followBackoff paces stale-epoch follows: 1ms doubling per follow,
// capped at 8ms — enough to let a cutover wave settle, small enough to
// stay invisible in p99.
var followBackoff = exec.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}

// followEpochs runs one query round under the current routing map and,
// while the round fails on a stale epoch with a strictly newer map
// attached, adopts that map and re-runs — up to maxEpochFollows times,
// followBackoff apart. It returns the last round's answer and how many
// adoptions it chased.
func followEpochs[T any](ctx context.Context, rt *Router, root *obs.Span, round func(cur *ShardMap) (T, error)) (T, int, error) {
	for follow := 0; ; follow++ {
		cur := rt.Map()
		res, err := round(cur)
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

	res, follows, err := followEpochs(ctx, rt, root, func(cur *ShardMap) (*Result, error) {
		return rt.searchEpoch(ctx, q, cur, root)
	})
	if res != nil {
		res.EpochFollows = follows
	}
	return res, err
}

// searchEpoch scatters q under one map and merges the gathered records.
func (rt *Router) searchEpoch(ctx context.Context, q grid.Rect, sm *ShardMap, parent *obs.Span) (*Result, error) {
	g, err := scatter(ctx, rt, searchOp, q, sm, parent)
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
		rt.mPartial.Inc()
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

// scatter decomposes q under sm, plans its legs (legOp.cover), runs them
// concurrently — the last on the caller's goroutine, so a one-leg query
// spawns nothing and that leg's deep call chain runs on a stack already
// grown — and gathers the outcomes. With every piece answered it
// returns (g, nil). With pieces missing it returns what was gathered
// alongside a *StaleEpochError when any node gossiped a newer epoch — the
// follow loop should adopt and re-scatter rather than surface a partial
// answer of a dead epoch — and a *PartialError naming the uncovered
// sub-rectangles otherwise. A cancelled caller gets (nil, ctx.Err()),
// not a synthetic partial result. Each leg's HTTP request derives from
// ctx, so a caller giving up aborts everything in flight.
func scatter[R any](ctx context.Context, rt *Router, op legOp[R], q grid.Rect, sm *ShardMap, parent *obs.Span) (*gathered[R], error) {
	subs, err := sm.Decompose(q)
	if err != nil {
		return nil, err
	}
	var legs []legPlan
	if op.cover {
		legs = planCover(subs, sm, rt.brk, rt.hedge, int(rt.turn.Add(1)-1))
	} else {
		legs = planShards(subs, sm)
	}
	g := &gathered[R]{subs: subs, outs: make([]subOutcome[R], len(subs))}
	var wg sync.WaitGroup
	last := len(legs) - 1 // a rect decomposes into at least one piece
	for _, l := range legs[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runLeg(ctx, rt, op, l, sm, parent, g.outs)
		}()
	}
	runLeg(ctx, rt, op, legs[last], sm, parent, g.outs)
	wg.Wait()

	var missed []SubQuery
	var subErr error
	var stale *StaleEpochError
	for _, o := range g.outs {
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
		missed = append(missed, o.subs...)
		if subErr == nil {
			subErr = o.err
		}
	}
	rt.mRetries.Add(uint64(g.retries))
	rt.mHedges.Add(uint64(g.hedges))
	rt.mHedgeWins.Add(uint64(g.hedgeWins))
	switch {
	case stale != nil:
		return g, stale
	case len(missed) > 0:
		return g, newPartialError(missed, subErr)
	}
	return g, nil
}

// runLeg answers one planned leg into its slots of outs. A merged leg
// that fails splits back into one-piece sub-queries, run concurrently,
// each as runSub runs a piece from its second attempt on, the merged
// leg's failure its first: its shard's holders in rotation from the
// failed lead, so the first retry goes to another holder, with the retry
// budget, hedges and backoff of any piece. Only a stale epoch — every
// piece would draw it, and the follow loop adopts the newer map — or a
// caller gone leaves the merged failure standing.
func runLeg[R any](ctx context.Context, rt *Router, op legOp[R], l legPlan, sm *ShardMap, parent *obs.Span, outs []subOutcome[R]) {
	o := runSub(ctx, rt, op, l, sm, parent, nil)
	if o.err == nil || !l.merged() || ctx.Err() != nil || errors.Is(o.err, ErrStaleEpoch) {
		outs[l.first] = o
		return
	}
	cause := errors.Unwrap(o.err) // the attempt's own error, not runSub's summary
	var wg sync.WaitGroup
	last := len(l.subs) - 1
	for i, sq := range l.subs {
		piece := legPlan{first: l.first + i, subs: l.subs[i : i+1], rects: l.rects[i : i+1],
			holders: leadFirst(sm.ShardMembers(sq.Shard), l.holders[0])}
		if i == last {
			outs[piece.first] = runSub(ctx, rt, op, piece, sm, parent, cause)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[piece.first] = runSub(ctx, rt, op, piece, sm, parent, cause)
		}()
	}
	wg.Wait()
}

// runSub answers one leg. A fresh leg (failed nil) starts at attempt 0; a
// piece split back from a merged leg that failed with failed continues
// at attempt 1, failed standing as its last error. A one-piece leg
// gets Retry.MaxAttempts attempts, each led by Breakers.Lead's holder
// (the next in rotation, skipping open breakers when a closed one exists,
// and on the first attempt members on probation), each a race (one
// hedge.Racer serves them all) against Breakers.Backup's holder,
// Retry.Wait apart. A lead overtaken by its timed hedge goes on
// probation (Breakers.Settle). A merged leg gets one attempt, at its one
// holder, with no backup: runLeg splits a failure back into its pieces.
// Candidates are stable member IDs.
//
// The configured attempt budget is a floor, not a ceiling: when the
// caller set a deadline, that deadline is the real budget, and node
// faults keep the backoff-paced rotation going until it expires — a
// timeout or load shedding are conditions the next round may not see.
// Rotation matters even for hard transport failures — a crashed
// primary's EOFs trip its breaker within a round or two, after which
// Lead steers the remaining attempts at the surviving replicas.
// Without a deadline the budget exhausts and the sub-query degrades to
// a partial result, so a shard with no live replica fails fast. Only
// typed refusals (below) prove another round is pointless.
func runSub[R any](ctx context.Context, rt *Router, op legOp[R], l legPlan, sm *ShardMap, parent *obs.Span, failed error) subOutcome[R] {
	var span *obs.Span // labels are formatted only for a live trace
	if parent != nil {
		span = parent.Child(l.label(op.span))
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
		resp, err := callNode(lctx, rt, op, node, l.rects, sm.Epoch())
		s.FinishErr(err)
		if !hedgeLeg {
			// A lead whose leg context was cancelled while the sub-query
			// lives was overtaken by its timed hedge.
			if rt.brk.Settle(node, err == nil, err != nil && lctx.Err() != nil && ctx.Err() == nil) {
				rt.mProbations.Inc()
			}
		}
		return resp, err
	}
	var racer hedge.Racer[*R]
	defer racer.Release()
	o := subOutcome[R]{subs: l.subs}
	budget, hasDeadline := rt.retry.MaxAttempts, false
	if l.merged() {
		budget = 1
	} else {
		_, hasDeadline = ctx.Deadline()
	}
	attempt, lastErr := 0, failed
	if failed != nil {
		attempt = 1
	}
	for ; attempt < budget || hasDeadline; attempt++ {
		if attempt > 0 {
			o.retries++
			if err := rt.retry.Wait(ctx, attempt); err != nil {
				o.err = err
				span.FinishErr(err)
				return o
			}
		}
		node := rt.brk.Lead(l.holders, attempt)
		backup, after := rt.brk.Backup(l.holders, node, rt.hedge)
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
	o.err = fmt.Errorf("cluster: %s exhausted %d attempts: %w", l.label(op.span), attempt, lastErr)
	span.FinishErr(o.err)
	return o
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
func callNode[R any](ctx context.Context, rt *Router, op legOp[R], node int, rects []grid.Rect, epoch uint64) (*R, error) {
	resp := new(R)
	start := time.Now()
	var err error
	if routes, ok := rt.routes[node]; ok {
		req := op.req
		req.Rects, req.Epoch = rects, epoch
		var body []byte
		if body, err = req.appendTo(nil); err == nil {
			err = exchange(ctx, rt.client, rt.deadline, &routes[op.route], body, resp, op.limit)
		}
		if err == nil {
			err = op.vet(resp, rects)
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

// AggregateResult is a gathered cluster aggregate: the merged
// batch-layer answer plus routing metadata.
type AggregateResult struct {
	aggregate.AggregateResult
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
// cluster: the rect decomposes into per-shard pieces, the fewest holders
// that cover them each answer theirs in one leg from a disk-free
// per-bucket summary (planCover), and the partials merge exactly. Every
// leg runs the same scatter as Search (rotation, backoff, hedging,
// breakers); a merged leg that fails splits back into one leg per piece.
// Only the current epoch is asked. Unlike Search, any uncovered piece
// fails the whole query: a partial sum or count is not a degraded
// answer, it is a wrong one — the *PartialError names the uncovered
// sub-rectangles. Stale-epoch adoption follows the same gossip path as
// Search.
func (rt *Router) Aggregate(ctx context.Context, q aggregate.AggregateQuery) (*AggregateResult, error) {
	rt.mAggregates.Inc()
	start := time.Now()
	var root *obs.Span
	if rt.sink != nil && rt.sink.Tracing() {
		tr := rt.sink.StartTrace(fmt.Sprintf("cluster %s(%d) %v", q.Op, q.Attr, q.Rect))
		root = tr.Root()
		defer rt.sink.FinishTrace(tr)
	}
	defer func() { rt.mLatency.Observe(time.Since(start)) }()

	res, follows, err := followEpochs(ctx, rt, root, func(cur *ShardMap) (*AggregateResult, error) {
		g, err := scatter(ctx, rt, aggregateOp(q), q.Rect, cur, root)
		if err != nil {
			var pe *PartialError
			if errors.As(err, &pe) {
				root.Annotate(fmt.Sprintf("aggregate refused, %d uncovered (first: %v)", len(pe.Uncovered), pe.Cause))
			}
			return nil, err
		}
		parts := make([]aggregate.AggregateResult, 0, len(g.outs))
		for _, o := range g.outs {
			if o.resp != nil { // an empty slot has none
				parts = append(parts, o.resp.AggregateResult)
			}
		}
		return &AggregateResult{
			AggregateResult: aggregate.MergeAggregates(q.Op, q.Attr, parts),
			SubQueries:      len(g.subs), Retries: g.retries, Epoch: cur.Epoch(),
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
