// Package batch turns the one-query-at-a-time serving path into a
// shared-work engine: in-flight range queries are grouped inside a
// small time/size window, decomposed into bucket demand, and deduped so
// each distinct bucket is read once physically and fanned out to every
// logical query that covers it. The group's physical reads dispatch
// through the caller-supplied ReadFunc — in production the
// serve.Scheduler's bucket-set admission path — so the engine sits
// between admission and exec dispatch without owning either. A
// pluggable policy orders the reads (FIFO vs shared-work-first), and
// per-query cancellation is refcounted: abandoning one query never
// cancels a read another query still needs, while a group whose every
// member abandoned cancels its remaining reads promptly.
//
// Alongside the batch path, the engine answers aggregate queries
// (COUNT/SUM/MIN/MAX over a rectangle) from an AggregateIndex — per-disk
// summed-area tables in the cost.PrefixEvaluator mould — with zero
// bucket reads.
package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
)

// ErrClosed reports a query submitted to an engine that has begun
// closing.
var ErrClosed = errors.New("batch: engine closed")

// ReadFunc executes one physical bucket-set read at the given
// admission priority. The production wiring is
// serve.Scheduler.DoBuckets; tests may substitute anything honouring
// the same contract: distinct buckets in, records in (bucket,
// insertion) order out.
type ReadFunc func(ctx context.Context, buckets []int, priority int) (*exec.Result, error)

// Query is one logical unit of batching: a cell rectangle plus the
// admission priority its group's physical reads inherit (a group runs
// at the maximum priority of its members).
type Query struct {
	Rect     grid.Rect
	Priority int
}

// Answer is one logical query's result.
type Answer struct {
	// Records are the qualifying records in (bucket, insertion) order —
	// bit-identical to the same rectangle issued through the unbatched
	// path.
	Records []datagen.Record
	// Buckets is the number of grid buckets the query covered.
	Buckets int
	// Shared is how many of those buckets at least one other group
	// member also demanded.
	Shared int
	// Degraded reports a degraded (failover-routed) wave served part of
	// this answer.
	Degraded bool
}

// Engine batches logical queries over one grid file.
type Engine struct {
	f      *gridfile.File
	g      *grid.Grid
	run    ReadFunc
	window time.Duration
	max    int
	wave   int
	policy Policy
	ix     *AggregateIndex

	obs     *obs.Sink
	metrics batchMetrics
	stats   batchCounters

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	cur    *group
	closed bool
	wg     sync.WaitGroup
}

// Option configures an Engine.
type Option func(*Engine)

// WithWindow sets the batching window: a group dispatches when its
// oldest member has waited this long (default 2ms). Must be positive.
func WithWindow(d time.Duration) Option { return func(e *Engine) { e.window = d } }

// WithMaxBatch caps a group's size; a full group dispatches without
// waiting out the window (default 16).
func WithMaxBatch(n int) Option { return func(e *Engine) { e.max = n } }

// WithWave bounds the buckets per physical dispatch: a group's plan is
// issued in policy-ordered waves of at most n buckets, each one
// admission unit, and queries complete as soon as their last bucket's
// wave lands. 0 (the default) dispatches the whole plan as one wave —
// maximum dedup throughput, coarsest completion.
func WithWave(n int) Option { return func(e *Engine) { e.wave = n } }

// WithPolicy selects the read-ordering policy (default PolicyFIFO).
func WithPolicy(p Policy) Option { return func(e *Engine) { e.policy = p } }

// WithObserver attaches an observability sink: the engine mirrors its
// counters into batch.* metric families and — when tracing — records a
// span tree per group (plan, waves, savings).
func WithObserver(s *obs.Sink) Option { return func(e *Engine) { e.obs = s } }

// New builds an engine over the file, dispatching physical reads
// through run. It snapshots the file into the aggregate index, so
// build it after loading.
func New(f *gridfile.File, run ReadFunc, opts ...Option) (*Engine, error) {
	if f == nil {
		return nil, fmt.Errorf("batch: nil grid file")
	}
	if run == nil {
		return nil, fmt.Errorf("batch: nil read func")
	}
	e := &Engine{
		f:      f,
		g:      f.Grid(),
		run:    run,
		window: 2 * time.Millisecond,
		max:    16,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.window <= 0 {
		return nil, fmt.Errorf("batch: non-positive window %v", e.window)
	}
	if e.max < 1 {
		return nil, fmt.Errorf("batch: max batch %d < 1", e.max)
	}
	if e.wave < 0 {
		return nil, fmt.Errorf("batch: negative wave size %d", e.wave)
	}
	ix, err := BuildAggregateIndex(f)
	if err != nil {
		return nil, err
	}
	e.ix = ix
	if e.obs != nil {
		e.metrics = newBatchMetrics(e.obs.Registry())
	}
	e.baseCtx, e.baseCancel = context.WithCancel(context.Background())
	return e, nil
}

// Index returns the engine's aggregate index.
func (e *Engine) Index() *AggregateIndex { return e.ix }

// Stats snapshots the lifetime counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Issued:      e.stats.Issued.Load(),
		Answered:    e.stats.Answered.Load(),
		Failed:      e.stats.Failed.Load(),
		Abandoned:   e.stats.Abandoned.Load(),
		Groups:      e.stats.Groups.Load(),
		Demand:      e.stats.Demand.Load(),
		Physical:    e.stats.Physical.Load(),
		Deduped:     e.stats.Deduped.Load(),
		Pruned:      e.stats.Pruned.Load(),
		AggIssued:   e.stats.AggIssued.Load(),
		AggAnswered: e.stats.AggAnswered.Load(),
		AggFailed:   e.stats.AggFailed.Load(),
	}
}

// Close stops admissions, flushes the open group, waits for in-flight
// groups to finish (their reads still honour the ReadFunc's own
// deadlines and admission), and returns the final counters. A second
// Close returns ErrClosed.
func (e *Engine) Close() (Stats, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return e.Stats(), ErrClosed
	}
	e.closed = true
	g := e.cur
	e.cur = nil
	e.mu.Unlock()
	if g != nil {
		e.launch(g)
	}
	e.wg.Wait()
	e.baseCancel()
	return e.Stats(), nil
}

// Search submits one default-priority query and blocks until its group
// delivers (or ctx ends first — abandoning this query only).
func (e *Engine) Search(ctx context.Context, r grid.Rect) (*Answer, error) {
	return e.Do(ctx, Query{Rect: r})
}

// Do submits one query. The call blocks through the batching window
// and the group's physical reads; cancelling ctx abandons only this
// query — shared reads other members still need are never cancelled.
func (e *Engine) Do(ctx context.Context, q Query) (*Answer, error) {
	e.stats.Issued.Add(1)
	e.metrics.issued.Inc()
	buckets, err := e.bucketsOf(q.Rect)
	if err != nil {
		e.stats.Failed.Add(1)
		e.metrics.failed.Inc()
		return nil, err
	}
	mem, err := e.enqueue(ctx, q, buckets)
	if err != nil {
		e.stats.Failed.Add(1)
		e.metrics.failed.Inc()
		return nil, err
	}
	select {
	case <-mem.done:
		return mem.ans, mem.err
	case <-ctx.Done():
		if mem.state.CompareAndSwap(statePending, stateAbandoned) {
			e.stats.Failed.Add(1)
			e.metrics.failed.Inc()
			e.stats.Abandoned.Add(1)
			e.metrics.abandoned.Inc()
			mem.g.memberDone()
			return nil, ctx.Err()
		}
		// Decided concurrently with our cancellation: honour it.
		<-mem.done
		return mem.ans, mem.err
	}
}

// Aggregate answers one aggregate query straight from the index —
// zero bucket reads by construction.
func (e *Engine) Aggregate(ctx context.Context, q AggregateQuery) (AggregateResult, error) {
	e.stats.AggIssued.Add(1)
	e.metrics.aggIssued.Inc()
	if err := ctx.Err(); err != nil {
		e.stats.AggFailed.Add(1)
		e.metrics.aggFailed.Inc()
		return AggregateResult{}, err
	}
	res, err := e.ix.Aggregate(q)
	if err != nil {
		e.stats.AggFailed.Add(1)
		e.metrics.aggFailed.Inc()
		return AggregateResult{}, err
	}
	e.stats.AggAnswered.Add(1)
	e.metrics.aggAnswered.Inc()
	return res, nil
}

// bucketsOf validates the rect and decomposes it into ascending
// row-major bucket numbers.
func (e *Engine) bucketsOf(r grid.Rect) ([]int, error) {
	if err := e.g.CheckRect(r); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	return e.g.AppendRect(nil, r), nil
}

// Member states.
const (
	statePending int32 = iota
	stateDecided
	stateAbandoned
)

// member is one logical query riding a group.
type member struct {
	rect     grid.Rect
	prio     int
	buckets  []int
	enqueued time.Time
	g        *group

	state atomic.Int32
	ans   *Answer
	err   error
	done  chan struct{}
}

// group collects members until the window closes or the batch fills.
type group struct {
	e       *Engine
	members []*member
	timer   *time.Timer
	// launched is guarded by Engine.mu; exactly one launcher wins.
	// started is its lock-free shadow for memberDone, set just before
	// execute spawns.
	launched bool
	started  atomic.Bool
	// pending counts members not yet decided (answered, failed, or
	// abandoned); incremented as members join, decremented by
	// memberDone. At zero the group's remaining reads are cancelled —
	// nobody needs them.
	pending atomic.Int64
	// ctx/cancel are created with the group (immutable after), so an
	// abandonment landing before the group even executes cancels safely.
	ctx    context.Context
	cancel context.CancelFunc
}

// memberDone records one member's decision; the last one cancels the
// group's remaining physical reads. Before launch the count may
// transiently hit zero and refill as later queries join the window, so
// cancellation waits for started — execute's wave pruning already skips
// a fully-abandoned plan, and its deferred cancel releases the context.
func (g *group) memberDone() {
	if g.pending.Add(-1) == 0 && g.started.Load() {
		g.cancel()
	}
}

// enqueue adds the query to the open group, opening one (and its
// window timer) if needed, and dispatches a full group immediately.
func (e *Engine) enqueue(ctx context.Context, q Query, buckets []int) (*member, error) {
	mem := &member{
		rect:     q.Rect,
		prio:     q.Priority,
		buckets:  buckets,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if e.cur == nil {
		g := &group{e: e}
		g.ctx, g.cancel = context.WithCancel(e.baseCtx)
		g.timer = time.AfterFunc(e.window, func() { e.launch(g) })
		e.cur = g
	}
	g := e.cur
	mem.g = g
	g.members = append(g.members, mem)
	g.pending.Add(1)
	full := len(g.members) >= e.max
	e.mu.Unlock()
	if full {
		e.launch(g)
	}
	return mem, nil
}

// launch dispatches a group exactly once; timer expiry, a full batch,
// and Close all race here safely.
func (e *Engine) launch(g *group) {
	e.mu.Lock()
	if g.launched {
		e.mu.Unlock()
		return
	}
	g.launched = true
	if e.cur == g {
		e.cur = nil
	}
	e.wg.Add(1)
	e.mu.Unlock()
	if g.timer != nil {
		g.timer.Stop()
	}
	g.started.Store(true)
	if g.pending.Load() == 0 {
		// Every member abandoned before launch; the zero-crossing
		// happened with started unset, so cancel here.
		g.cancel()
	}
	go g.execute()
}

// execute runs one group end to end: plan, policy-ordered waves of
// deduped physical reads, per-bucket fan-out, per-member delivery.
func (g *group) execute() {
	e := g.e
	defer e.wg.Done()
	start := time.Now()
	e.stats.Groups.Add(1)
	e.metrics.groups.Inc()

	members := g.members
	lists := make([][]int, len(members))
	prio := members[0].prio
	for i, m := range members {
		lists[i] = m.buckets
		if m.prio > prio {
			prio = m.prio
		}
		if e.metrics.windowWait != nil {
			e.metrics.windowWait.Observe(time.Since(m.enqueued))
		}
	}
	plan := BuildPlan(lists)
	e.stats.Demand.Add(uint64(plan.Demand))
	e.metrics.demand.Add(uint64(plan.Demand))
	e.stats.Deduped.Add(uint64(plan.Saved()))
	e.metrics.deduped.Add(uint64(plan.Saved()))
	order := plan.Order(e.policy)

	var tr *obs.Trace
	if e.obs.Tracing() {
		tr = e.obs.StartTrace(fmt.Sprintf("batch group n=%d buckets=%d saved=%d %s",
			len(members), len(order), plan.Saved(), e.policy))
		defer e.obs.FinishTrace(tr)
	}

	defer g.cancel()

	waveSize := e.wave
	if waveSize == 0 {
		waveSize = len(order)
	}

	perBucket := make(map[int][]datagen.Record, len(order))
	remaining := make([]int, len(members))
	for i := range members {
		remaining[i] = len(lists[i])
	}
	degraded := false
	dispatched := 0
	var groupErr error

	deliver := func(qi int) {
		m := members[qi]
		if !m.state.CompareAndSwap(statePending, stateDecided) {
			return
		}
		ans := &Answer{Buckets: len(lists[qi]), Degraded: degraded}
		for _, b := range lists[qi] {
			ans.Records = append(ans.Records, perBucket[b]...)
			if len(plan.Covers[b]) > 1 {
				ans.Shared++
			}
		}
		m.ans = ans
		close(m.done)
		e.stats.Answered.Add(1)
		e.metrics.answered.Inc()
		if e.metrics.queryLatency != nil {
			e.metrics.queryLatency.Observe(time.Since(m.enqueued))
		}
		g.memberDone()
	}

	for wi := 0; wi < len(order) && groupErr == nil; wi += waveSize {
		wave := order[wi:min(wi+waveSize, len(order))]
		// Prune buckets nobody pending still covers — reads whose every
		// logical owner abandoned are never dispatched.
		live := make([]int, 0, len(wave))
		for _, b := range wave {
			needed := false
			for _, qi := range plan.Covers[b] {
				if members[qi].state.Load() == statePending {
					needed = true
					break
				}
			}
			if needed {
				live = append(live, b)
			}
		}
		if len(live) == 0 {
			continue
		}
		var wsp *obs.Span
		if tr != nil {
			wsp = tr.Root().Child(fmt.Sprintf("wave %d (%d buckets)", wi/waveSize, len(live)))
		}
		res, err := e.run(g.ctx, live, prio)
		dispatched += len(live)
		if err != nil {
			wsp.FinishErr(err)
			groupErr = err
			break
		}
		wsp.Finish()
		if res.Degraded {
			degraded = true
		}
		for _, rec := range res.Records {
			b, err := e.f.BucketOf(rec.Values)
			if err != nil {
				groupErr = fmt.Errorf("batch: record %d maps to no cell: %w", rec.ID, err)
				break
			}
			perBucket[b] = append(perBucket[b], rec)
		}
		if groupErr != nil {
			break
		}
		for _, b := range live {
			for _, qi := range plan.Covers[b] {
				remaining[qi]--
				if remaining[qi] == 0 {
					deliver(qi)
				}
			}
		}
	}

	// Planned reads never dispatched — wave pruning plus an aborted
	// group's tail — all count Pruned, keeping Demand == Physical +
	// Deduped + Pruned exact.
	pruned := len(order) - dispatched
	e.stats.Physical.Add(uint64(dispatched))
	e.metrics.physical.Add(uint64(dispatched))
	e.stats.Pruned.Add(uint64(pruned))
	e.metrics.pruned.Add(uint64(pruned))

	if groupErr == nil {
		groupErr = fmt.Errorf("batch: internal: group finished with undelivered members")
	}
	for _, m := range members {
		if m.state.CompareAndSwap(statePending, stateDecided) {
			m.err = groupErr
			close(m.done)
			e.stats.Failed.Add(1)
			e.metrics.failed.Inc()
			g.memberDone()
			if tr != nil {
				tr.Root().Annotate("failed member")
			}
		}
	}
	if e.metrics.groupLatency != nil {
		e.metrics.groupLatency.Observe(time.Since(start))
	}
}
