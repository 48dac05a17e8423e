// Package exec executes grid-file searches with real concurrency: each
// disk's run of buckets is read whole by one goroutine, and runs that
// wait or work are read in parallel — a parallel I/O subsystem's
// fan-out. The disksim package *models* time; this package actually
// parallelizes the work, so library users get a drop-in concurrent scan
// whose speedup follows the declustering quality the study measures.
//
// The executor is fault-aware: reads go through a pluggable
// BucketReader that may return errors, transient errors are retried
// with capped exponential backoff, a per-query deadline bounds total
// latency, and — when a replica scheme is attached — buckets on
// fail-stop disks are rerouted to their backups with the degraded load
// rebalanced by the exact min-makespan schedule. Without replication, a
// failed disk makes the affected queries return a typed
// *fault.UnavailableError instead of silently wrong results.
package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/hedge"
	"decluster/internal/obs"
	"decluster/internal/replica"
)

// RetryPolicy bounds per-read retries of transient errors.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per bucket read,
	// including the first (minimum 1; 0 selects 1).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further
	// retry doubles it. Zero disables sleeping (retry immediately).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubled backoff (0 = uncapped).
	MaxBackoff time.Duration
}

// Delay is the backoff before retry number retry (1-based): BaseBackoff
// doubled retry−1 times and capped at MaxBackoff.
func (p RetryPolicy) Delay(retry int) time.Duration {
	d, limit := p.BaseBackoff, p.MaxBackoff
	if limit <= 0 {
		limit = math.MaxInt64
	}
	for i := 1; i < retry; i++ {
		if d > limit/2 {
			return limit // the next doubling would pass the cap (or overflow)
		}
		d *= 2
	}
	return min(d, limit)
}

// Wait sleeps Delay(retry), returning early with ctx.Err() when the
// context ends first. Every backoff in the repository — bucket reads,
// router rotation, epoch follows, rebuild sheds, donor rounds, cutover
// retries — is this schedule under its own policy.
func (p RetryPolicy) Wait(ctx context.Context, retry int) error {
	d := p.Delay(retry)
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

// DefaultRetry is a policy suited to the transient faults the injector
// models: up to 5 attempts with 1ms → 8ms exponential backoff.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
}

// Executor runs searches over a grid file with per-disk parallelism.
type Executor struct {
	file *gridfile.File
	// maxParallel bounds the runs read at once; 0 means one per disk.
	// Either way the bound is capped at 4·NumCPU.
	maxParallel int
	// reader serves bucket reads (default: the grid file itself).
	reader BucketReader
	// inj optionally injects faults into routing and reads.
	inj *fault.Injector
	// retry bounds transient-error retries.
	retry RetryPolicy
	// deadline bounds each query's wall-clock time (0 = none).
	deadline time.Duration
	// failover optionally reroutes buckets around failed disks.
	failover *replica.Replicated
	// avoid optionally names extra disks to route around (e.g. disks a
	// circuit breaker holds open); consulted once per query.
	avoid func() []int
	// wraps optionally wrap each query's reader, applied in option
	// order with later wrappers outermost — all after the fault layer,
	// so every wrapper observes injected errors.
	wraps []func(BucketReader) BucketReader
	// obs optionally receives metrics and traces; metrics is its
	// pre-resolved handle struct, nil when disabled, so the hot path
	// pays one pointer comparison per site.
	obs     *obs.Sink
	metrics *execMetrics
	// states pools per-query scratch (routing tables, disk tasks, gather
	// slots, a reusable cancellation context) so the steady-state
	// query path allocates nothing.
	states sync.Pool
}

// execMetrics holds the executor's pre-resolved metric handles. Every
// counter the conservation test sums is registered here at
// construction — not lazily — so the metric name set is deterministic
// regardless of which events fire.
type execMetrics struct {
	queries, queriesOK, queriesErr *obs.Counter
	degraded, rerouted             *obs.Counter
	// Read accounting, exact by construction:
	//   attempts == attemptsOK + attemptsErr + retried
	//   calls    == callsOK + callsErr + cancelled
	calls, callsOK, callsErr, cancelled *obs.Counter
	attempts, attemptsOK, attemptsErr   *obs.Counter
	retried                             *obs.Counter
	diskAttempts                        *obs.CounterFamily
	diskLatency                         *obs.HistogramFamily
}

// newExecMetrics registers the executor's metric set for disks disks.
func newExecMetrics(r *obs.Registry, disks int) *execMetrics {
	if r == nil {
		return nil
	}
	return &execMetrics{
		queries:      r.Counter("exec.queries"),
		queriesOK:    r.Counter("exec.queries.ok"),
		queriesErr:   r.Counter("exec.queries.err"),
		degraded:     r.Counter("exec.queries.degraded"),
		rerouted:     r.Counter("exec.buckets.rerouted"),
		calls:        r.Counter("exec.read.calls"),
		callsOK:      r.Counter("exec.read.calls.ok"),
		callsErr:     r.Counter("exec.read.calls.err"),
		cancelled:    r.Counter("exec.read.calls.cancelled"),
		attempts:     r.Counter("exec.read.attempts"),
		attemptsOK:   r.Counter("exec.read.attempts.ok"),
		attemptsErr:  r.Counter("exec.read.attempts.err"),
		retried:      r.Counter("exec.read.attempts.retried"),
		diskAttempts: r.CounterFamily("exec.disk.read.attempts", "disk", disks),
		diskLatency:  r.HistogramFamily("exec.disk.read.latency", "disk", disks),
	}
}

// readTally accumulates one disk run's hot-path counter deltas as
// plain integers so the read loop pays no contended atomics — sixteen
// runs hammering the same shared counters serialize on cache lines
// and cost ~20% of a range search. The run flushes once when it
// finishes, before the query completes, so every post-query read of
// the registry still sees exact conservation; only a mid-query scrape
// can observe the deltas in flight (already true of any multi-counter
// update).
type readTally struct {
	calls, callsOK, callsErr, cancelled uint64
	attempts, attemptsOK, attemptsErr   uint64
	retried                             uint64
	// stamp is where the run's next timed attempt starts: the
	// hedge.Now stamp its last clean attempt ended at, or 0 to take a
	// fresh one (first attempt, or after an error and its backoff). One
	// clock read per attempt, and the run's loop between two attempts
	// counts toward the second.
	stamp int64
}

// flush folds one run's tally into the shared counters: eight
// atomic adds per disk per query instead of five per bucket read.
func (m *execMetrics) flush(disk int, t *readTally) {
	if m == nil {
		return
	}
	m.calls.Add(t.calls)
	m.callsOK.Add(t.callsOK)
	m.callsErr.Add(t.callsErr)
	m.cancelled.Add(t.cancelled)
	m.attempts.Add(t.attempts)
	m.attemptsOK.Add(t.attemptsOK)
	m.attemptsErr.Add(t.attemptsErr)
	m.retried.Add(t.retried)
	m.diskAttempts.At(disk).Add(t.attempts)
}

// Option configures an Executor.
type Option func(*Executor)

// WithMaxParallel bounds the number of disk runs read at once — useful
// when simulating fewer I/O channels than disks. A query starts at most
// that many runners, the calling goroutine among them, and each runner
// reads whole runs, claimed in ascending disk order, until none is left.
// 0 (the default) means one runner per disk; the bound is capped at
// 4·NumCPU either way. The bound is for reads that may wait or work: a
// query that only views the grid file's pages — the default reader, no
// layer above it that may wait (NeverWaits) and no retry that sleeps —
// has nothing to overlap, and is read by the calling goroutine alone.
func WithMaxParallel(n int) Option {
	return func(e *Executor) { e.maxParallel = n }
}

// WithBucketReader replaces the default grid-file reader. The reader
// must be safe for concurrent use.
func WithBucketReader(r BucketReader) Option {
	return func(e *Executor) { e.reader = r }
}

// WithFaults attaches a fault injector: fail-stop disks affect routing
// (failover or unavailability) and every read may transiently error
// per the injector's probability.
func WithFaults(inj *fault.Injector) Option {
	return func(e *Executor) { e.inj = inj }
}

// WithRetry sets the transient-error retry policy (default: one
// attempt, no retries).
func WithRetry(p RetryPolicy) Option {
	return func(e *Executor) { e.retry = p }
}

// WithDeadline bounds each query's wall-clock time; an exceeded
// deadline returns context.DeadlineExceeded.
func WithDeadline(d time.Duration) Option {
	return func(e *Executor) { e.deadline = d }
}

// WithFailover attaches a replica scheme for degraded routing: buckets
// whose primary disk is fail-stop are served from their backup, with
// the whole query re-scheduled to minimize the busiest surviving disk.
func WithFailover(r *replica.Replicated) Option {
	return func(e *Executor) { e.failover = r }
}

// WithAvoid registers a callback naming extra disks the router should
// treat as out of service *when a failover replica scheme can route
// around them* — the hook a circuit breaker uses to steer queries away
// from a sick-but-alive disk. The callback is consulted once per query.
// Unlike fail-stop disks, avoided disks are advisory: if avoiding them
// would leave some bucket with no replica (or no failover scheme is
// attached), the query falls back to reading them anyway rather than
// failing.
func WithAvoid(fn func() []int) Option {
	return func(e *Executor) { e.avoid = fn }
}

// WithObserver attaches an observability sink: the executor registers
// per-disk read counters and latency histograms in its registry and —
// when the sink traces and the caller put a query span in the context —
// records per-disk and per-attempt read spans. A nil sink disables
// everything at the cost of one branch per instrumented site.
func WithObserver(s *obs.Sink) Option {
	return func(e *Executor) { e.obs = s }
}

// WithReadWrapper wraps each query's bucket reader with fn, applied
// outside the per-query fault-injection layer so it observes every read
// the query issues, including injected errors — which is what a health
// tracker, hedging layer, or read-repairer needs. The option composes:
// given several wrappers, each is applied in option order with later
// wrappers outermost (a health observer added after a read-repairer
// sees the repaired, error-free reads). fn is called once per query and
// must return a reader safe for concurrent use by that query's runners.
// A disk's reads come from one goroutine, one at a time; when the
// outermost wrapper's reader is a RunEnder, that goroutine calls
// EndRun(disk) after its last read of the query, before the query
// returns — where a reader that batches per-disk bookkeeping (the
// scheduler's health tracker) flushes it.
func WithReadWrapper(fn func(BucketReader) BucketReader) Option {
	return func(e *Executor) { e.wraps = append(e.wraps, fn) }
}

// New constructs an executor over the file.
func New(f *gridfile.File, opts ...Option) (*Executor, error) {
	if f == nil {
		return nil, fmt.Errorf("exec: nil grid file")
	}
	e := &Executor{file: f}
	for _, opt := range opts {
		opt(e)
	}
	if e.maxParallel < 0 {
		return nil, fmt.Errorf("exec: negative parallelism %d", e.maxParallel)
	}
	if e.retry.MaxAttempts < 0 {
		return nil, fmt.Errorf("exec: negative retry attempts %d", e.retry.MaxAttempts)
	}
	if e.retry.BaseBackoff < 0 || e.retry.MaxBackoff < 0 {
		return nil, fmt.Errorf("exec: negative retry backoff")
	}
	if e.deadline < 0 {
		return nil, fmt.Errorf("exec: negative deadline %v", e.deadline)
	}
	if e.failover != nil {
		fg, g := e.failover.Grid(), f.Grid()
		if e.failover.Disks() != f.Disks() || fg.Buckets() != g.Buckets() || fg.K() != g.K() {
			return nil, fmt.Errorf("exec: failover replica on %v/%d disks does not match file %v/%d disks",
				fg, e.failover.Disks(), g, f.Disks())
		}
		// Shape alone is not enough: a replica built over a different
		// allocation method routes buckets to the wrong disks, skewing
		// Rerouted counts and degraded-load accounting even when a
		// disk-agnostic reader happens to return correct records.
		for b, d := range alloc.Table(f.Method()) {
			if e.failover.PrimaryOf(b) != d {
				return nil, fmt.Errorf("exec: failover replica allocation differs from file method %s at bucket %d (primary %d, file disk %d)",
					f.Method().Name(), b, e.failover.PrimaryOf(b), d)
			}
		}
	}
	if e.reader == nil {
		e.reader = fileReader{f: f}
	}
	if e.obs != nil {
		e.metrics = newExecMetrics(e.obs.Registry(), f.Disks())
	}
	return e, nil
}

// queryReader returns the BucketReader one query should read through:
// the configured reader, wrapped — per query, so attempt counters start
// fresh and one query's injected faults are independent of every other
// query past or concurrent — in the fault injector when present, and
// finally in the WithReadWrapper hooks, in option order with later
// wrappers outermost, so observers and hedgers see injected faults too.
func (e *Executor) queryReader() BucketReader {
	r := e.reader
	if e.inj != nil {
		r = newFaultReader(r, e.inj)
	}
	for _, wrap := range e.wraps {
		r = wrap(r)
	}
	return r
}

// Result is the outcome of a parallel search.
//
// Ownership: the caller owns a returned Result and every slice it
// holds. Nothing in the executor retains or mutates them, so holding a
// Result across later queries is always safe — except the pages of a
// RangeSearchPages answer, which are the grid file's own (see Pages). A
// caller that is done with a Result may call Release to recycle its
// buffers into the executor's pool; after Release the Result and its
// slices must not be touched — a later query may reuse them. Callers
// that never call Release simply opt out of reuse.
type Result struct {
	// Records are the qualifying records, in deterministic (bucket,
	// insertion) order regardless of run scheduling: the query's
	// buckets ascending, each bucket's records in storage order. A
	// RangeSearchPages answer leaves it empty and carries Pages instead.
	Records []datagen.Record
	// Pages, set only by RangeSearchPages, has one entry per bucket of
	// the query, ascending: the bucket's records as the read returned
	// them, nil for an empty bucket — Records before the copy, for a
	// caller that only encodes them. A page from the default reader is a
	// view of the grid file's storage, valid until the next write to its
	// bucket (gridfile.File.Bucket): the caller must not write to it,
	// must not let a write to its buckets run before it is done with it,
	// and must be done with it by Release, which drops every page.
	Pages [][]datagen.Record
	// RecordsPerBucket has one entry per bucket of the query, ascending —
	// Records order: entry i is how many of Records came from the i-th
	// bucket, 0 for an empty one. Records is their concatenation, so a
	// consumer can cut it back into buckets without mapping a value. With
	// Pages, entry i is len(Pages[i]).
	RecordsPerBucket []int
	// BucketsPerDisk counts the non-empty buckets each disk read.
	BucketsPerDisk []int
	// Retries counts transient read errors that were retried to
	// success.
	Retries int
	// Rerouted counts buckets served from a backup replica because
	// their primary disk was fail-stop or avoided.
	Rerouted int
	// Degraded reports whether any fail-stop disk affected routing.
	Degraded bool

	// owner is the pool Release returns the Result to; nil for Results
	// built outside the pooled path (and after Release, making a double
	// Release a no-op).
	owner *sync.Pool
	// pages keeps Pages' backing, cleared, while Pages is nil.
	pages [][]datagen.Record
}

// Release hands the Result's buffers back for reuse by later queries.
// It is optional: callers that keep results alive indefinitely just
// never call it. Calling Release while still holding Records is a
// use-after-free bug on the caller's side; Release on a nil Result or
// one not from the pool is a no-op. Release drops the Result's pages:
// a pooled Result keeps no view of a file.
func (r *Result) Release() {
	if r == nil || r.owner == nil {
		return
	}
	if r.Pages != nil {
		clear(r.Pages)
		r.pages, r.Pages = r.Pages[:0], nil
	}
	p := r.owner
	r.owner = nil
	p.Put(r)
}

// RangeSearch reads every bucket of the cell rectangle r concurrently,
// each disk's run on one goroutine, honouring ctx cancellation and the
// configured deadline. The first read error cancels all sibling runs
// promptly. Results are merged into deterministic order.
func (e *Executor) RangeSearch(ctx context.Context, r grid.Rect) (*Result, error) {
	return e.rangeSearch(ctx, r, false)
}

// RangeSearchPages is RangeSearch for a caller that only encodes the
// answer: the Result carries each bucket's page in Pages, in the order
// RangeSearch would copy them into Records, and leaves Records empty.
// The pages are the file's own storage; see Result.Pages for how long
// they stay valid.
func (e *Executor) RangeSearchPages(ctx context.Context, r grid.Rect) (*Result, error) {
	return e.rangeSearch(ctx, r, true)
}

func (e *Executor) rangeSearch(ctx context.Context, r grid.Rect, pages bool) (*Result, error) {
	g := e.file.Grid()
	if err := g.CheckRect(r); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	// A rectangle is a bucket set: enumerate it into the query's pooled
	// list and take the same route as an explicit read set.
	qs := e.getState()
	qs.buckets = g.AppendRect(qs.buckets[:0], r) // ascending: a bucket's rank is its index
	return e.run(ctx, qs, qs.buckets, nil, pages)
}

// RangeSearchBuckets reads an explicit set of row-major bucket numbers
// with the same machinery as RangeSearch: per-disk runs, retries,
// deadline, breaker avoidance, and degraded failover routing. It is
// the physical entry point of the batch engine, whose deduped read
// plans are bucket sets rather than rectangles. Buckets must be
// distinct (a deduped plan never repeats one, and rejecting repeats
// keeps the merged record order deterministic); records come back in
// (bucket, insertion) order exactly as a rectangle covering the same
// buckets would return them.
func (e *Executor) RangeSearchBuckets(ctx context.Context, buckets []int) (*Result, error) {
	qs := e.getState()
	rank, err := qs.rankBuckets(buckets, e.file.Grid().Buckets())
	if err != nil {
		e.putState(qs)
		return nil, err
	}
	return e.run(ctx, qs, buckets, rank, false)
}

// rankBuckets validates an explicit read set — every bucket inside
// [0,n), none repeated — and returns each bucket's rank in ascending
// order, nil when the set is already ascending and the rank is the
// index. The marks and the ranks live on the pooled state; the marks
// are wiped before returning, whatever the verdict.
func (qs *queryState) rankBuckets(buckets []int, n int) (rank []int, err error) {
	if len(qs.seen) < n {
		qs.seen = make([]bool, n)
	}
	ascending := true
	checked := 0
	for i, b := range buckets {
		if b < 0 || b >= n {
			err = fmt.Errorf("exec: bucket %d outside [0,%d)", b, n)
			break
		}
		if qs.seen[b] {
			err = fmt.Errorf("exec: duplicate bucket %d in read set", b)
			break
		}
		qs.seen[b] = true
		ascending = ascending && (i == 0 || buckets[i-1] < b)
		checked++
	}
	for _, b := range buckets[:checked] {
		qs.seen[b] = false
	}
	if err != nil || ascending {
		return nil, err
	}
	// Sort the indices, not the set: the order given is the order each
	// disk reads in, and stays.
	qs.order = slices.Grow(qs.order[:0], len(buckets))
	for i := range buckets {
		qs.order = append(qs.order, i)
	}
	slices.SortFunc(qs.order, func(i, j int) int { return cmp.Compare(buckets[i], buckets[j]) })
	qs.rank = slices.Grow(qs.rank[:0], len(buckets))[:len(buckets)]
	for r, i := range qs.order {
		qs.rank[i] = r
	}
	return qs.rank, nil
}

// run executes one already-validated query on the pooled state qs:
// route partitions the bucket set into per-disk runs, then the caller
// alone if the reads only view pages, else at most limit runners — the
// caller and parked workers — claim the runs and read each whole,
// honouring ctx and the configured deadline, leaving each page in the
// slot of its bucket's rank (nil rank: the set is ascending and the
// rank is the index), and one pass over the slots gathers the records in
// deterministic (bucket, insertion) order — or, with pages set, hands the
// slots over as Result.Pages. Every piece of per-query state — the
// rectangle's bucket list, routing tables, disk tasks, the cancellation
// context, the slots, the Result — is pooled, so the healthy unobserved
// path allocates nothing.
func (e *Executor) run(ctx context.Context, qs *queryState, buckets, rank []int, pages bool) (*Result, error) {
	// Past validation every query ends in exactly one of queriesOK /
	// queriesErr, so exec.queries == exec.queries.ok + exec.queries.err.
	m := e.metrics
	if m != nil {
		m.queries.Inc()
	}
	qs.m = m
	if e.obs.Tracing() {
		qs.qsp = obs.SpanFromContext(ctx)
	}
	qs.beginCtx(ctx)

	qs.slots = slices.Grow(qs.slots[:0], len(buckets))[:len(buckets)]
	rerouted, degraded, err := e.route(qs, buckets, rank)
	if err != nil {
		qs.endCtx()
		e.putState(qs)
		if m != nil {
			m.queriesErr.Inc()
		}
		return nil, err
	}

	disks := e.file.Disks()
	qs.active = qs.active[:0]
	for d := 0; d < disks; d++ {
		if qs.tasks[d].routed {
			qs.active = append(qs.active, d)
		}
	}

	// At most limit runners pull the runs: this goroutine and up to
	// limit−1 parked workers, so a query whose buckets sit on one disk
	// hands nothing off. A query that only views pages (WithMaxParallel)
	// is this goroutine's alone: a runner would have neither a wait nor
	// work to overlap, and the merge after the runs is serial anyway.
	qs.reader = e.queryReader()
	qs.ender, _ = qs.reader.(RunEnder)
	qs.waitless = NeverWaits(qs.reader)
	limit := 1
	if _, views := e.reader.(fileReader); !views || !qs.waitless || (e.retry.MaxAttempts > 1 && e.retry.Delay(1) > 0) {
		limit = min(cmp.Or(e.maxParallel, disks), disks, runtime.NumCPU()*4)
	}
	qs.next.Store(0)
	for i := 1; i < min(limit, len(qs.active)); i++ {
		qs.wg.Add(1)
		submit(qs)
	}
	qs.pull()
	qs.wg.Wait()
	qs.endCtx()

	if qs.firstErr != nil {
		err := qs.firstErr
		e.putState(qs)
		if m != nil {
			m.queriesErr.Inc()
		}
		return nil, err
	}
	if m != nil {
		m.queriesOK.Inc()
		if degraded {
			m.degraded.Inc()
		}
		m.rerouted.Add(uint64(rerouted))
	}

	out := newResult()
	if cap(out.BucketsPerDisk) < disks {
		out.BucketsPerDisk = make([]int, disks)
	}
	out.BucketsPerDisk = out.BucketsPerDisk[:disks]
	out.Retries, out.Rerouted, out.Degraded = 0, rerouted, degraded
	for d := 0; d < disks; d++ {
		t := &qs.tasks[d]
		out.BucketsPerDisk[d] = t.read
		out.Retries += t.retries
	}
	// Deterministic merge: records ordered by (bucket of origin,
	// insertion order) regardless of run scheduling — slot order. The
	// records are copied out of the read path's views into the Result's
	// own backing, sized once, so the Result aliases neither the grid
	// file nor any pooled buffer. A page answer copies the slots' headers
	// instead, not their records: it aliases the file by contract, never
	// the state.
	if cap(out.RecordsPerBucket) < len(qs.slots) {
		out.RecordsPerBucket = make([]int, len(qs.slots))
	}
	out.RecordsPerBucket = out.RecordsPerBucket[:len(qs.slots)]
	total := 0
	for i, page := range qs.slots {
		out.RecordsPerBucket[i] = len(page)
		total += len(page)
	}
	recs := out.Records[:0]
	if pages {
		out.Pages = append(out.pages[:0], qs.slots...)
	} else {
		if cap(recs) < total {
			recs = make([]datagen.Record, 0, total)
		}
		for _, page := range qs.slots {
			recs = append(recs, page...)
		}
	}
	out.Records = recs
	e.putState(qs)
	return out, nil
}

// route partitions the query's bucket set into per-disk runs in qs.tasks
// — the one place that decides which disk reads which bucket, for
// rectangles and explicit read sets alike. A run holds its disk's
// non-empty buckets in the order given and each one's rank (rank[i], or
// i when rank is nil): its slot in the gather, which never sorts. An
// empty bucket's slot is set to nil here; its disk still has a run.
// With fail-stop disks present route reroutes via the replica scheme's
// min-makespan degraded assignment or, without replication, reports the
// unreachable buckets as a typed *fault.UnavailableError. Disks named by
// WithAvoid are also routed around when the failover scheme permits,
// else read: avoidance is advisory, fail-stop is not. On a healthy
// executor nothing is allocated.
func (e *Executor) route(qs *queryState, buckets, rank []int) (rerouted int, degraded bool, err error) {
	for d := range qs.tasks {
		qs.tasks[d].reset()
	}
	var failed map[int]bool
	if e.inj != nil {
		failed = e.inj.FailedSet()
	}
	degraded = len(failed) > 0
	// The avoid set extends the failed set with the WithAvoid disks; it
	// only matters when a failover scheme exists to route around them.
	avoid := failed
	if e.avoid != nil && e.failover != nil {
		if extra := e.avoid(); len(extra) > 0 {
			avoid = make(map[int]bool, len(failed)+len(extra))
			for d := range failed {
				avoid[d] = true
			}
			for _, d := range extra {
				if d >= 0 && d < e.file.Disks() {
					avoid[d] = true
				}
			}
		}
	}

	// Replica failover: schedule every bucket onto a live replica,
	// minimizing the busiest disk (the degraded load is rebalanced, not
	// just dumped on each chain neighbour). First try routing around the
	// whole avoid set; if that is infeasible (some bucket has both
	// replicas merely *avoided*, or every disk is avoided), retry with
	// just the truly failed disks — a breaker-open disk is still
	// readable, so avoidance must never turn an answerable query into an
	// unavailable one.
	var assign map[int]int
	if e.failover != nil && len(avoid) > 0 {
		assign, err = e.failover.DegradedAssignmentBuckets(buckets, setToSlice(avoid))
		if err != nil && len(avoid) > len(failed) {
			avoid, assign, err = failed, nil, nil
			if degraded {
				assign, err = e.failover.DegradedAssignmentBuckets(buckets, setToSlice(failed))
			}
		}
		if err != nil {
			return 0, degraded, err
		}
	}

	place := func(d, i int) {
		t := &qs.tasks[d]
		t.routed = true
		b, r := buckets[i], i
		if rank != nil {
			r = rank[i]
		}
		if e.file.BucketLen(b) == 0 {
			qs.slots[r] = nil
			return
		}
		t.buckets, t.ranks = append(t.buckets, b), append(t.ranks, r)
	}
	switch {
	case assign != nil:
		for i, b := range buckets {
			place(assign[b], i)
			if avoid[e.failover.PrimaryOf(b)] {
				rerouted++
			}
		}
	case !degraded:
		// Healthy path (or nothing failed and avoidance infeasible):
		// primary routing straight off the file's bucket→disk table.
		for i, b := range buckets {
			place(e.file.DiskOf(b), i)
		}
	default:
		// No replication: buckets on failed disks are unreachable, and
		// partial answers would be silently wrong.
		var unreachable []int
		for i, b := range buckets {
			if d := e.file.DiskOf(b); failed[d] {
				unreachable = append(unreachable, b)
			} else {
				place(d, i)
			}
		}
		if len(unreachable) > 0 {
			sort.Ints(unreachable)
			return 0, true, &fault.UnavailableError{Buckets: unreachable, FailedDisks: setToSlice(failed)}
		}
	}
	return rerouted, degraded, nil
}

// setToSlice returns the set's members in ascending order.
func setToSlice(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// readAttempt is one attempt at a stretch of disk's run — the rest of
// the run, or one bucket (see runDisk) — as one ReadRun call on the
// query's reader r; try numbers the attempt from 1. It is the one place
// a read is spanned, counted and timed. dsp, when non-nil, is the disk
// span: the attempt's span hangs off it and rides the context, so reader
// wrappers (hedging, read-repair) can attach their own children. The n
// clean reads and a failed one count as attempts, and as calls only on a
// first attempt; the failed read is readWithRetry's to classify. With
// metrics on, one clock read at each end times the stretch, and disk's
// latency histogram gets one sample of the mean per attempt.
func (e *Executor) readAttempt(ctx context.Context, r BucketReader, dsp *obs.Span, t *readTally, disk, try int, buckets []int, pages [][]datagen.Record) (int, error) {
	var asp *obs.Span
	if dsp != nil {
		asp = dsp.Child(fmt.Sprintf("read b%d attempt %d", buckets[0], try))
		ctx = obs.ContextWithSpan(ctx, asp)
	}
	m := e.metrics
	if m != nil && t.stamp == 0 {
		t.stamp = hedge.Now()
	}
	n, err := ReadRun(ctx, r, disk, buckets, pages)
	k := uint64(n)
	if err != nil {
		k++
	}
	t.attempts += k
	t.attemptsOK += uint64(n)
	t.callsOK += uint64(n)
	if try == 1 {
		t.calls += k
	}
	if m != nil && k > 0 {
		end := hedge.Now()
		m.diskLatency.At(disk).ObserveN(time.Duration(end-t.stamp)/time.Duration(k), int(k))
		t.stamp = end
		if err != nil {
			t.stamp = 0 // an error's backoff is not read time
		}
	}
	asp.FinishErr(err)
	return n, err
}

// readWithRetry settles the read of bucket[0] whose first attempt failed
// with err: a transient error is retried per the policy, with capped
// exponential backoff, each retry one readAttempt into page[0]. It
// returns the number of retries performed and the terminal error if any,
// counting in t how the read ended.
func (e *Executor) readWithRetry(ctx context.Context, r BucketReader, dsp *obs.Span, t *readTally, disk int, bucket []int, page [][]datagen.Record, err error) (int, error) {
	limit := max(e.retry.MaxAttempts, 1)
	for attempt := 1; ; attempt++ {
		if attempt >= limit || !errors.Is(err, fault.ErrTransient) {
			t.attemptsErr++
			t.callsErr++
			return attempt - 1, fmt.Errorf("exec: disk %d bucket %d: %w", disk, bucket[0], err)
		}
		t.retried++
		if werr := e.retry.Wait(ctx, attempt); werr != nil {
			t.cancelled++
			return attempt - 1, werr
		}
		if _, err = e.readAttempt(ctx, r, dsp, t, disk, attempt+1, bucket, page); err == nil {
			return attempt, nil
		}
	}
}

// RangeSearchValues runs RangeSearch over the cell rectangle covering
// the inclusive value bounds under the file's partition boundaries and
// filters records to them, mirroring gridfile.RangeSearch but
// concurrent. RecordsPerBucket counts the records that pass.
func (e *Executor) RangeSearchValues(ctx context.Context, lo, hi []float64) (*Result, error) {
	r, err := e.file.ValueRect(lo, hi)
	if err != nil {
		return nil, err
	}
	res, err := e.RangeSearch(ctx, r)
	if err != nil {
		return nil, err
	}
	filtered, rest := res.Records[:0], res.Records
	for b, n := range res.RecordsPerBucket {
		kept := len(filtered)
		for _, rec := range rest[:n] {
			ok := true
			for i := range rec.Values {
				if rec.Values[i] < lo[i] || rec.Values[i] > hi[i] {
					ok = false
					break
				}
			}
			if ok {
				filtered = append(filtered, rec)
			}
		}
		rest, res.RecordsPerBucket[b] = rest[n:], len(filtered)-kept
	}
	res.Records = filtered
	return res, nil
}
