package exec

import (
	"context"
	"strconv"
	"sync"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/obs"
)

// This file holds the executor's steady-state pooling machinery: parked
// disk workers, per-query state reuse, a reusable cancellation context,
// and the result pool behind Result.Release. Together they make the
// healthy RangeSearch path (nil obs sink, no injector, no reader wraps)
// allocation-free per query — asserted by TestRangeSearchZeroAllocs and
// enforced in the CI bench smoke.

// workerIdle is how long a parked disk worker waits for its next task
// before retiring. Parked workers bound steady-state goroutine churn to
// zero; the idle timeout bounds the parked population after a load
// spike drains.
const workerIdle = 10 * time.Second

// execWorker is one reusable disk-work goroutine. Its task channel is
// buffered so the submitter's send never blocks: a worker is handed a
// task only after being removed from the free list, and it re-parks
// before signalling completion, so at most one task is ever in flight.
type execWorker struct {
	ch chan *diskTask
}

// workerPool is the process-global parked-worker freelist. It is shared
// by every Executor: the population is bounded by peak query fan-out
// across the process, not per executor.
var workerPool struct {
	mu   sync.Mutex
	free []*execWorker
}

// submitTask hands t to a parked worker, spawning a fresh one only when
// the free list is empty (cold start or load spike).
func submitTask(t *diskTask) {
	workerPool.mu.Lock()
	var w *execWorker
	if n := len(workerPool.free); n > 0 {
		w = workerPool.free[n-1]
		workerPool.free[n-1] = nil
		workerPool.free = workerPool.free[:n-1]
	}
	workerPool.mu.Unlock()
	if w == nil {
		w = &execWorker{ch: make(chan *diskTask, 1)}
		go w.loop()
	}
	w.ch <- t
}

// park returns w to the free list.
func (w *execWorker) park() {
	workerPool.mu.Lock()
	workerPool.free = append(workerPool.free, w)
	workerPool.mu.Unlock()
}

// tryRetire removes w from the free list, reporting success. Failure
// means a submitter already claimed w, so a task is (about to be) in
// flight and w must serve it instead of exiting.
func (w *execWorker) tryRetire() bool {
	workerPool.mu.Lock()
	defer workerPool.mu.Unlock()
	for i, f := range workerPool.free {
		if f == w {
			last := len(workerPool.free) - 1
			workerPool.free[i] = workerPool.free[last]
			workerPool.free[last] = nil
			workerPool.free = workerPool.free[:last]
			return true
		}
	}
	return false
}

// loop serves tasks until the worker sits idle for workerIdle.
func (w *execWorker) loop() {
	idle := time.NewTimer(workerIdle)
	defer idle.Stop()
	for {
		select {
		case t := <-w.ch:
			w.serve(t)
		case <-idle.C:
			if w.tryRetire() {
				return
			}
			// A submitter claimed us as the timer fired; the task is in
			// flight on our buffered channel.
			w.serve(<-w.ch)
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(workerIdle)
	}
}

// serve runs one task. The worker re-parks itself *before* signalling
// completion so a caller issuing its next query immediately after
// wg.Wait finds this worker on the free list — steady-state execution
// spawns no goroutines.
func (w *execWorker) serve(t *diskTask) {
	wg := &t.qs.wg
	t.run()
	w.park()
	wg.Done()
}

// diskTask is one disk's share of a query: its bucket list in, its
// counters out (the pages go to the query's slots). Tasks live in
// queryState and are reused across queries.
type diskTask struct {
	qs      *queryState
	disk    int
	buckets []placed
	useSem  bool

	read    int // non-empty buckets read
	retries int
	tally   readTally
}

// run reads the task's buckets; it is the body of the old per-query
// worker goroutine, now executed by a pooled worker.
func (t *diskTask) run() {
	qs := t.qs
	e := qs.ex
	var dsp *obs.Span
	if qs.qsp != nil {
		dsp = qs.qsp.Child(diskSpanName(t.disk))
		defer dsp.Finish()
	}
	var tally *readTally
	if qs.m != nil {
		tally = &t.tally
		defer qs.m.flush(t.disk, &t.tally)
	}
	// The query's cancellation is looked up once: per bucket it is a
	// receive that does not block, where ctx.Err() would take the
	// context's mutex, which every worker of the query shares.
	ctx := qs.ctx
	done := ctx.Done()
	if t.useSem {
		select {
		case <-qs.sem:
			defer qs.releaseSem()
		case <-done:
			dsp.FinishErr(ctx.Err())
			qs.fail(ctx.Err())
			return
		}
	}
	for _, p := range t.buckets {
		select {
		case <-done:
			err := ctx.Err()
			dsp.FinishErr(err)
			qs.fail(err)
			return
		default:
		}
		if e.file.BucketLen(p.bucket) == 0 {
			qs.slots[p.rank] = nil // the grid directory knows the bucket is empty
			continue
		}
		recs, tries, err := e.readWithRetry(ctx, qs.reader, dsp, tally, t.disk, p.bucket)
		t.retries += tries
		if err != nil {
			dsp.FinishErr(err)
			qs.fail(err)
			return
		}
		qs.slots[p.rank] = recs
		t.read++
	}
}

// queryState is the reusable per-query scratch of one Executor: routing
// tables, disk tasks, the concurrency semaphore, the gather's slots, and
// a reusable cancellation context. States are pooled per executor so
// the steady-state query path performs no heap allocation.
type queryState struct {
	ex     *Executor
	ctx    context.Context
	reader BucketReader
	m      *execMetrics
	qsp    *obs.Span

	// sem carries "permit" tokens: acquire = receive, release = send.
	// Its capacity is the disk count; semTokens tracks how many tokens
	// are currently banked so each query adjusts rather than refills.
	sem       chan struct{}
	semTokens int

	wg sync.WaitGroup

	mu       sync.Mutex
	firstErr error

	// useQctx selects the reusable context; false means the stdlib
	// composition below is live. That one is taken when reader wraps
	// exist: a wrapper derives child contexts from the query's (a hedge
	// races its legs under one), and the context package can hook a
	// child onto a parent of its own types directly, while a foreign
	// parent such as qctx costs it a watcher goroutine per child.
	useQctx   bool
	qctx      queryCtx
	stdCancel context.CancelFunc
	tCancel   context.CancelFunc

	// buckets is RangeSearch's enumeration of its rectangle, kept for
	// its capacity; perDisk is route's partition of the query's bucket
	// set (this list or a caller's explicit one). slots has one entry
	// per bucket of the set, in ascending bucket order: each worker
	// writes the slots of its own buckets, the gather reads them all.
	buckets []int
	perDisk [][]placed
	tasks   []diskTask
	slots   [][]datagen.Record

	// rankBuckets' scratch: marks over the grid's buckets, and the
	// index sort and ranks of a read set that is not ascending.
	seen        []bool
	order, rank []int
}

// getState returns a pooled query state, creating one sized for the
// executor's disk count on first use.
func (e *Executor) getState() *queryState {
	if v := e.states.Get(); v != nil {
		return v.(*queryState)
	}
	disks := e.file.Disks()
	return &queryState{
		ex:      e,
		sem:     make(chan struct{}, disks),
		perDisk: make([][]placed, disks),
		tasks:   make([]diskTask, disks),
	}
}

// putState returns qs to the pool, dropping per-query references while
// keeping every buffer's capacity.
func (e *Executor) putState(qs *queryState) {
	qs.ctx = nil
	qs.reader = nil
	qs.qsp = nil
	qs.m = nil
	qs.firstErr = nil
	e.states.Put(qs)
}

// fail records the query's first error and cancels the sibling workers.
func (qs *queryState) fail(err error) {
	qs.mu.Lock()
	if qs.firstErr == nil {
		qs.firstErr = err
		if qs.useQctx {
			qs.qctx.cancelCurrent(context.Canceled)
		} else {
			qs.stdCancel()
		}
	}
	qs.mu.Unlock()
}

// setSemTokens banks exactly n permit tokens in the semaphore.
func (qs *queryState) setSemTokens(n int) {
	for qs.semTokens < n {
		qs.sem <- struct{}{}
		qs.semTokens++
	}
	for qs.semTokens > n {
		<-qs.sem
		qs.semTokens--
	}
}

// releaseSem returns one permit.
func (qs *queryState) releaseSem() { qs.sem <- struct{}{} }

// beginCtx installs the query's effective context: the reusable qctx on
// the unwrapped path, or the stdlib timeout/cancel composition when
// reader wraps exist (see useQctx).
func (qs *queryState) beginCtx(parent context.Context) {
	e := qs.ex
	if len(e.wraps) == 0 {
		qs.ctx = qs.qctx.begin(parent, e.deadline)
		qs.useQctx = true
		return
	}
	qs.useQctx = false
	cctx := parent
	if e.deadline > 0 {
		cctx, qs.tCancel = context.WithTimeout(cctx, e.deadline)
	}
	cctx, qs.stdCancel = context.WithCancel(cctx)
	qs.ctx = cctx
}

// endCtx releases whatever beginCtx installed.
func (qs *queryState) endCtx() {
	if qs.useQctx {
		qs.qctx.end()
		return
	}
	if qs.stdCancel != nil {
		qs.stdCancel()
		qs.stdCancel = nil
	}
	if qs.tCancel != nil {
		qs.tCancel()
		qs.tCancel = nil
	}
}

// queryCtx is a reusable context.Context for one query at a time. The
// stdlib context tree allocates several nodes per query; this one
// allocates its done channel once and reuses it for every query that
// ends uncancelled (the overwhelmingly common case — a closed channel
// cannot be reopened, so a cancelled query forces one fresh channel).
// A generation counter fences the deadline timer and parent watcher of
// a finished query from cancelling a later one.
type queryCtx struct {
	parent context.Context

	mu   sync.Mutex
	gen  uint64
	done chan struct{}
	err  error

	dl    time.Time
	hasDL bool
	timer *time.Timer

	watching bool
	stop     chan struct{} // buffered 1; end() posts, watcher consumes
}

// begin arms qc for one query under parent with an optional relative
// deadline and returns it as the query's context.
func (qc *queryCtx) begin(parent context.Context, deadline time.Duration) context.Context {
	qc.parent = parent
	dl := time.Time{}
	hasDL := false
	if deadline > 0 {
		dl = time.Now().Add(deadline)
		hasDL = true
	}
	if pd, ok := parent.Deadline(); ok && (!hasDL || pd.Before(dl)) {
		dl = pd
		hasDL = true
	}
	qc.mu.Lock()
	qc.gen++
	qc.err = nil
	if qc.done == nil {
		qc.done = make(chan struct{})
	}
	qc.dl, qc.hasDL = dl, hasDL
	gen := qc.gen
	qc.mu.Unlock()
	if hasDL {
		d := time.Until(dl)
		if d <= 0 {
			qc.cancelCurrent(context.DeadlineExceeded)
			return qc
		}
		if qc.timer == nil {
			qc.timer = time.AfterFunc(d, qc.expire)
		} else {
			qc.timer.Reset(d)
		}
	}
	if parent.Done() != nil {
		if qc.stop == nil {
			qc.stop = make(chan struct{}, 1)
		}
		qc.watching = true
		go qc.watchParent(parent, gen)
	}
	return qc
}

// end disarms qc after its query completes. Callers guarantee every
// worker using qc has finished.
func (qc *queryCtx) end() {
	if qc.timer != nil {
		qc.timer.Stop()
	}
	if qc.watching {
		qc.watching = false
		qc.stop <- struct{}{}
	}
	qc.mu.Lock()
	qc.gen++         // fence any in-flight watcher callback
	qc.hasDL = false // a stale timer fire between queries must no-op
	if qc.err != nil {
		qc.done = nil // closed channels cannot be reused
		qc.err = nil
	}
	qc.mu.Unlock()
	qc.parent = nil
}

// cancelCurrent cancels the query currently using qc. Only callers
// within that query's lifetime (its own workers) may use it.
func (qc *queryCtx) cancelCurrent(err error) {
	qc.mu.Lock()
	if qc.err == nil {
		qc.err = err
		close(qc.done)
	}
	qc.mu.Unlock()
}

// cancelGen cancels generation gen if it is still live — the fenced
// entry point for the deadline timer and parent watcher, which can
// outlive the query that armed them.
func (qc *queryCtx) cancelGen(gen uint64, err error) {
	if err == nil {
		err = context.Canceled
	}
	qc.mu.Lock()
	if qc.gen == gen && qc.err == nil {
		qc.err = err
		close(qc.done)
	}
	qc.mu.Unlock()
}

// expire is the deadline timer callback. A stale fire (the timer of a
// finished query losing the Stop race) is harmless: it only cancels
// when the *currently armed* deadline has genuinely lapsed, in which
// case cancellation is correct for the current query too.
func (qc *queryCtx) expire() {
	qc.mu.Lock()
	if qc.err == nil && qc.hasDL && !time.Now().Before(qc.dl) {
		qc.err = context.DeadlineExceeded
		close(qc.done)
	}
	qc.mu.Unlock()
}

// watchParent propagates parent cancellation into generation gen. It
// always consumes exactly one stop token before exiting so the stop
// channel is empty whenever no watcher runs.
func (qc *queryCtx) watchParent(parent context.Context, gen uint64) {
	select {
	case <-parent.Done():
		qc.cancelGen(gen, parent.Err())
		<-qc.stop
	case <-qc.stop:
	}
}

func (qc *queryCtx) Deadline() (time.Time, bool) { return qc.dl, qc.hasDL }

func (qc *queryCtx) Done() <-chan struct{} {
	qc.mu.Lock()
	d := qc.done
	qc.mu.Unlock()
	return d
}

func (qc *queryCtx) Err() error {
	qc.mu.Lock()
	err := qc.err
	qc.mu.Unlock()
	return err
}

func (qc *queryCtx) Value(key any) any {
	if qc.parent == nil {
		return nil
	}
	return qc.parent.Value(key)
}

// resultPool recycles Results whose owners called Release.
var resultPool sync.Pool

// newResult returns a pooled Result with every field reset and its
// buffers' capacity intact.
func newResult() *Result {
	if v := resultPool.Get(); v != nil {
		r := v.(*Result)
		r.owner = &resultPool
		return r
	}
	return &Result{owner: &resultPool}
}

// diskSpanNames caches the per-disk span labels so tracing a query does
// not re-format them; disk counts are tiny and stable process-wide.
var diskSpanNames struct {
	mu    sync.Mutex
	names []string
}

func diskSpanName(d int) string {
	diskSpanNames.mu.Lock()
	defer diskSpanNames.mu.Unlock()
	for len(diskSpanNames.names) <= d {
		diskSpanNames.names = append(diskSpanNames.names, "disk "+strconv.Itoa(len(diskSpanNames.names)))
	}
	return diskSpanNames.names[d]
}
