// Package batch turns the one-query-at-a-time serving path into a
// shared-work engine: in-flight range queries are grouped inside a
// small time/size window, decomposed into bucket demand, and deduped so
// each distinct bucket is read once and fanned out to every logical
// query that covers it. A group is one physical read — the buckets a
// pending member still covers, ascending — dispatched through the
// caller-supplied ReadFunc (in production the serve.Scheduler's
// bucket-set admission path) and cut back into buckets by the read's
// per-bucket record counts. The engine sits between admission and exec
// dispatch without owning either. In the paper's model a bucket set
// costs its busiest disk's bucket count, whatever order the disk reads
// in, so the engine orders nothing. Per-query cancellation is
// refcounted: abandoning one query never cancels a read another query
// still needs, while a group whose every member abandoned cancels its
// read promptly.
//
// Alongside the batch path, the engine answers aggregate queries
// (COUNT/SUM/MIN/MAX over a rectangle) from an aggregate.AggregateIndex
// — a per-bucket summary walked over the rectangle — with zero bucket
// reads.
package batch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"decluster/internal/aggregate"
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
// the same contract: distinct ascending buckets in; records out in
// (bucket, insertion) order, with RecordsPerBucket holding one count
// per bucket asked for. A read whose counts do not match fails the
// group's pending members.
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
	// Degraded reports that the group's read was degraded
	// (failover-routed).
	Degraded bool
}

// Engine batches logical queries over one grid file.
type Engine struct {
	g      *grid.Grid
	run    ReadFunc
	window time.Duration
	max    int
	ix     *aggregate.AggregateIndex

	obs     *obs.Sink
	metrics batchMetrics
	stats   batchCounters

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu  sync.Mutex
	cur *group
	// closed is written under mu, so no query joins a group after
	// Close flushed it; Aggregate reads it without the lock.
	closed atomic.Bool
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

// WithObserver attaches an observability sink: the engine mirrors its
// counters into batch.* metric families and — when tracing — records a
// span tree per group (plan, read, savings).
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
	ix, err := aggregate.BuildAggregateIndex(f)
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
	if e.closed.Swap(true) {
		e.mu.Unlock()
		return e.Stats(), ErrClosed
	}
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
// After Close it returns ErrClosed and leaves the final counters as
// Close returned them.
func (e *Engine) Do(ctx context.Context, q Query) (*Answer, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
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
// zero bucket reads by construction. After Close it returns ErrClosed
// and leaves the final counters as Close returned them.
func (e *Engine) Aggregate(ctx context.Context, q aggregate.AggregateQuery) (aggregate.AggregateResult, error) {
	if e.closed.Load() {
		return aggregate.AggregateResult{}, ErrClosed
	}
	e.stats.AggIssued.Add(1)
	e.metrics.aggIssued.Inc()
	if err := ctx.Err(); err != nil {
		e.stats.AggFailed.Add(1)
		e.metrics.aggFailed.Inc()
		return aggregate.AggregateResult{}, err
	}
	res, err := e.ix.Aggregate(q)
	if err != nil {
		e.stats.AggFailed.Add(1)
		e.metrics.aggFailed.Inc()
		return aggregate.AggregateResult{}, err
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
	// memberDone. At zero the group's read is cancelled — nobody needs
	// it.
	pending atomic.Int64
	// ctx/cancel are created with the group (immutable after), so an
	// abandonment landing before the group even executes cancels safely.
	ctx    context.Context
	cancel context.CancelFunc
}

// memberDone records one member's decision; the last one cancels the
// group's physical read. Before launch the count may transiently hit
// zero and refill as later queries join the window, so cancellation
// waits for started — execute's pruning already skips a fully-abandoned
// plan, and its deferred cancel releases the context.
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
	if e.closed.Load() {
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

// execute runs one group end to end: plan, prune, one deduped physical
// read, the cut back into buckets, per-member delivery.
func (g *group) execute() {
	e := g.e
	defer e.wg.Done()
	defer g.cancel()
	start := time.Now()
	e.stats.Groups.Add(1)
	e.metrics.groups.Inc()

	members := g.members
	lists := make([][]int, len(members))
	prio := members[0].prio
	for i, m := range members {
		lists[i] = m.buckets
		prio = max(prio, m.prio)
		if e.metrics.windowWait != nil {
			e.metrics.windowWait.Observe(time.Since(m.enqueued))
		}
	}
	plan := BuildPlan(lists)
	e.stats.Demand.Add(uint64(plan.Demand))
	e.metrics.demand.Add(uint64(plan.Demand))
	e.stats.Deduped.Add(uint64(plan.Saved()))
	e.metrics.deduped.Add(uint64(plan.Saved()))

	// Prune buckets nobody pending still covers — reads whose every
	// logical owner abandoned are never dispatched — and read the rest
	// ascending, the executor's rank-free order. A member still pending
	// at delivery was pending here, so every bucket it covers is read.
	live := make([]int, 0, len(plan.Buckets))
	for _, b := range plan.Buckets {
		for _, qi := range plan.Covers[b] {
			if members[qi].state.Load() == statePending {
				live = append(live, b)
				break
			}
		}
	}
	slices.Sort(live)
	pruned := len(plan.Buckets) - len(live)
	e.stats.Physical.Add(uint64(len(live)))
	e.metrics.physical.Add(uint64(len(live)))
	e.stats.Pruned.Add(uint64(pruned))
	e.metrics.pruned.Add(uint64(pruned))

	var tr *obs.Trace
	if e.obs.Tracing() {
		tr = e.obs.StartTrace(fmt.Sprintf("batch group n=%d buckets=%d saved=%d pruned=%d",
			len(members), len(live), plan.Saved(), pruned))
		defer e.obs.FinishTrace(tr)
	}

	var perBucket map[int][]datagen.Record
	var degraded bool
	var err error
	if len(live) > 0 {
		sp := tr.Root().Child("read")
		var res *exec.Result
		res, err = e.run(g.ctx, live, prio)
		if err == nil {
			degraded = res.Degraded
			perBucket, err = cut(live, res)
		}
		sp.FinishErr(err)
	}

	for qi, m := range members {
		if !m.state.CompareAndSwap(statePending, stateDecided) {
			continue
		}
		if err != nil {
			m.err = err
			e.stats.Failed.Add(1)
			e.metrics.failed.Inc()
			tr.Root().Annotate("failed member")
		} else {
			ans := &Answer{Buckets: len(lists[qi]), Degraded: degraded}
			for _, b := range lists[qi] {
				ans.Records = append(ans.Records, perBucket[b]...)
				if len(plan.Covers[b]) > 1 {
					ans.Shared++
				}
			}
			m.ans = ans
			e.stats.Answered.Add(1)
			e.metrics.answered.Inc()
			if e.metrics.queryLatency != nil {
				e.metrics.queryLatency.Observe(time.Since(m.enqueued))
			}
		}
		close(m.done)
		g.memberDone()
	}
	if e.metrics.groupLatency != nil {
		e.metrics.groupLatency.Observe(time.Since(start))
	}
}

// cut splits a read of the ascending buckets back into per-bucket
// record runs by the read's own counts, refusing counts that do not
// match the buckets asked for or the records returned — a record is
// never put in the wrong bucket.
func cut(buckets []int, res *exec.Result) (map[int][]datagen.Record, error) {
	if len(res.RecordsPerBucket) != len(buckets) {
		return nil, fmt.Errorf("batch: read returned %d bucket counts for %d buckets",
			len(res.RecordsPerBucket), len(buckets))
	}
	perBucket := make(map[int][]datagen.Record, len(buckets))
	rest := res.Records
	for i, n := range res.RecordsPerBucket {
		if n < 0 || n > len(rest) {
			return nil, fmt.Errorf("batch: read's bucket counts do not match its %d records", len(res.Records))
		}
		perBucket[buckets[i]], rest = rest[:n:n], rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("batch: read's bucket counts do not match its %d records", len(res.Records))
	}
	return perBucket, nil
}
