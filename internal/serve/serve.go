// Package serve turns the single-query executor into an overload-safe
// multi-query serving layer — the piece that decides how declustering
// quality survives contact with heavy concurrent traffic while faults
// are ongoing. A Scheduler wraps exec.Executor and adds four policies:
//
//   - Admission control: at most MaxInFlight queries run concurrently;
//     excess queries wait in a bounded priority queue. When the queue
//     is full, a new query is fast-rejected with a typed
//     *OverloadedError — unless it outranks the lowest-priority waiter,
//     which it then evicts. Queries whose context expires while queued
//     abandon the queue immediately; optionally, expired queries are
//     also dropped at dispatch instead of wasting disk time.
//
//   - Per-disk circuit breakers: every read's latency and outcome feed
//     a per-disk health tracker (EWMA latency + error counts). A run of
//     consecutive errors, or a sick EWMA, opens the disk's breaker:
//     the router then steers queries to that disk's replicas via the
//     executor's failover assignment, so one sick disk is discovered
//     once — not rediscovered by every query. After a cooldown the
//     breaker goes half-open and a few successful probes close it.
//
//   - Hedged reads: when a bucket read outlives a configurable delay
//     and the bucket's other replica is live, a speculative backup read
//     races it; the first success wins and the loser is cancelled.
//     Exactly one copy of the bucket's records is returned, and a lost
//     leg's cancellation is never charged against its disk's health.
//
//   - Graceful drain: Close() stops admissions, flushes the queue, lets
//     in-flight queries finish under a drain deadline, and reports a
//     final snapshot of the scheduler's counters and per-disk health.
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
	"decluster/internal/replica"
)

// Sentinel errors for errors.Is classification.
var (
	// ErrOverloaded classifies queries shed by admission control.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrClosed reports a query submitted to (or queued in) a scheduler
	// that has begun draining.
	ErrClosed = errors.New("serve: scheduler closed")
)

// OverloadedError reports one shed query with the load that shed it.
type OverloadedError struct {
	// QueueLen and InFlight are the scheduler load at rejection time.
	QueueLen, InFlight int
	// Evicted is true when the query had been queued and was displaced
	// by a higher-priority arrival, false for a fast reject.
	Evicted bool
}

// Error describes the shed.
func (e *OverloadedError) Error() string {
	kind := "rejected"
	if e.Evicted {
		kind = "evicted by a higher-priority query"
	}
	return fmt.Sprintf("serve: overloaded (%s; %d queued, %d in flight)", kind, e.QueueLen, e.InFlight)
}

// Is matches ErrOverloaded.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// AdmissionConfig bounds concurrency and queueing.
type AdmissionConfig struct {
	// MaxInFlight is the number of queries allowed to run concurrently
	// (default 2×GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds the admission queue (default 64; negative = no
	// queue, saturated arrivals are rejected immediately). A queued
	// query whose context has already expired at dispatch is dropped,
	// counted shed, instead of spending disk time on an answer nobody
	// is waiting for.
	MaxQueue int
}

func (c AdmissionConfig) withDefaults() (AdmissionConfig, error) {
	switch {
	case c.MaxInFlight < 0:
		return c, fmt.Errorf("serve: negative MaxInFlight %d", c.MaxInFlight)
	case c.MaxInFlight == 0:
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	case c.MaxQueue == 0:
		c.MaxQueue = 64
	}
	return c, nil
}

// MigrationPriority is the admission priority for online shard
// migration traffic: strictly below every foreground query (0 and up),
// so migration reads are shed first under load, but strictly above
// background repair (-1000 in the repair package), so an in-flight
// membership change finishes ahead of opportunistic scrubbing.
const MigrationPriority = -500

// Query is one unit of admission: a cell rectangle plus its standing in
// the drop policy.
type Query struct {
	// Rect is the cell rectangle to search.
	Rect grid.Rect
	// Priority orders queued queries (higher first) and decides
	// eviction: a full queue sheds its lowest-priority waiter to a
	// strictly higher-priority arrival. Ties dispatch FIFO.
	Priority int
}

// Stats is a snapshot of the scheduler's lifetime counters.
type Stats struct {
	// Admitted queries got an execution slot; Completed of those
	// returned results, Unavailable failed with fault.ErrUnavailable,
	// Failed failed any other way (including mid-query deadlines).
	Admitted, Completed, Unavailable, Failed uint64
	// Shed classes: Rejected at admission, Evicted from the queue by
	// priority, Expired when dispatch finds their context already ended
	// before they left the queue, Abandoned by their own context while
	// queued.
	Rejected, Evicted, Expired, Abandoned uint64
	// HedgesIssued counts backup reads issued against a bucket's other
	// replica: speculative ones beside a slow primary read, and the
	// at-once failover of a primary that failed outright. HedgesWon
	// counts those whose records were returned. A race whose hedge gate
	// declined issues no backup read and counts in neither.
	HedgesIssued, HedgesWon uint64
	// BreakerTrips counts closed/half-open → open transitions across
	// all disks.
	BreakerTrips uint64
}

// Shed returns the total shed queries across all four classes.
func (s Stats) Shed() uint64 { return s.Rejected + s.Evicted + s.Expired + s.Abandoned }

// counters is the internal atomic mirror of Stats.
type counters struct {
	Admitted, Completed, Unavailable, Failed atomic.Uint64
	Rejected, Evicted, Expired, Abandoned    atomic.Uint64
	HedgesIssued, HedgesWon                  atomic.Uint64
}

// Snapshot is the final report Close returns: counters plus per-disk
// health at drain time.
type Snapshot struct {
	Stats Stats
	Disks []DiskHealth
}

// Scheduler serves concurrent queries against one grid file under
// admission control, circuit breaking, and hedging. All methods are
// safe for concurrent use.
type Scheduler struct {
	ex     *exec.Executor
	rep    *replica.Replicated
	inj    *fault.Injector
	health *Breakers
	hedge  HedgeConfig
	adm    AdmissionConfig
	drain  time.Duration
	stats  counters
	// obs optionally receives metrics and traces; metrics is its
	// pre-resolved handle set (zero value = disabled, every handle a
	// nil-safe no-op).
	obs     *obs.Sink
	metrics serveMetrics

	mu       sync.Mutex
	waiters  waitq
	inFlight int
	seq      uint64
	closed   bool
	drained  chan struct{}

	// warnings collects configuration adjustments New made (e.g. a
	// base latency clamped up to the host timer floor); immutable after
	// New.
	warnings []string
}

// config collects the options of New.
type config struct {
	inj         *fault.Injector
	rep         *replica.Replicated
	reader      exec.BucketReader
	retry       exec.RetryPolicy
	retrySet    bool
	baseLatency time.Duration
	adm         AdmissionConfig
	brk         BreakerConfig
	hedge       HedgeConfig
	drain       time.Duration
	wraps       []func(exec.BucketReader) exec.BucketReader
	obs         *obs.Sink
	node        int
	nodeSet     bool
}

// Option configures a Scheduler.
type Option func(*config)

// WithFaults attaches a fault injector (see exec.WithFaults); the
// scheduler also consults it to skip hedging onto fail-stop disks.
func WithFaults(inj *fault.Injector) Option { return func(c *config) { c.inj = inj } }

// WithFailover attaches the replica scheme used for degraded routing,
// breaker avoidance, and hedge targets.
func WithFailover(r *replica.Replicated) Option { return func(c *config) { c.rep = r } }

// WithRetry sets the executor's transient-error retry policy.
func WithRetry(p exec.RetryPolicy) Option {
	return func(c *config) { c.retry, c.retrySet = p, true }
}

// WithBucketReader replaces the base grid-file reader.
func WithBucketReader(r exec.BucketReader) Option { return func(c *config) { c.reader = r } }

// WithBaseLatency inserts a simulated per-read service time of d ×
// the injector's straggler multiplier beneath the fault layer, giving
// soak experiments a realistic latency surface over the in-memory file.
//
// The host timer cannot fire faster than its measured floor (see
// TimerFloor), so a d below it would silently inflate every read to
// the floor anyway. New makes that explicit instead: it clamps such a
// d up to the floor and records a warning retrievable from
// Scheduler.Warnings(). Negative d is rejected by New.
func WithBaseLatency(d time.Duration) Option { return func(c *config) { c.baseLatency = d } }

// WithReadWrapper wraps each query's bucket reader with fn — the
// scheduler-level counterpart of exec.WithReadWrapper, used e.g. by the
// repair package to attach inline read-repair. Wrappers are applied in
// option order *inside* the scheduler's own observation/hedging layer,
// so disk health and hedging observe the wrapper's repaired (or still
// failing) reads rather than the raw ones. fn is called once per query
// and must return a reader safe for concurrent use by that query's
// runners.
func WithReadWrapper(fn func(exec.BucketReader) exec.BucketReader) Option {
	return func(c *config) { c.wraps = append(c.wraps, fn) }
}

// WithAdmission sets the admission-control bounds and drop policy.
func WithAdmission(a AdmissionConfig) Option { return func(c *config) { c.adm = a } }

// WithBreaker tunes the per-disk health tracker and circuit breakers.
func WithBreaker(b BreakerConfig) Option { return func(c *config) { c.brk = b } }

// WithHedging enables speculative backup reads after h.After; requires
// a failover scheme for the backup replicas.
func WithHedging(h HedgeConfig) Option { return func(c *config) { c.hedge = h } }

// WithDrainTimeout bounds how long Close waits for in-flight queries
// (default 5s).
func WithDrainTimeout(d time.Duration) Option { return func(c *config) { c.drain = d } }

// WithObserver attaches an observability sink: the scheduler mirrors
// its admission/outcome/hedge/breaker counters into the sink's
// registry, records queue-wait and query-latency histograms, passes
// the sink down to the executor for per-disk read metrics, and — when
// the sink has tracing enabled — records a full lifecycle span tree
// per query. A nil sink disables all of it for one branch per site.
func WithObserver(s *obs.Sink) Option { return func(c *config) { c.obs = s } }

// WithNodeMetrics additionally mirrors this scheduler's queue depth
// and shed count into the shared per-node families
// serve.node.queue.depth and serve.node.shed at slot node, so a
// process hosting many schedulers (a cluster harness, a multi-node
// sim) exposes live per-node backpressure — the signal the autopilot
// controller scales on. Requires WithObserver; no-op without it.
func WithNodeMetrics(node int) Option {
	return func(c *config) { c.node, c.nodeSet = node, true }
}

// New builds a scheduler over the grid file.
func New(f *gridfile.File, opts ...Option) (*Scheduler, error) {
	if f == nil {
		return nil, fmt.Errorf("serve: nil grid file")
	}
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	adm, err := c.adm.withDefaults()
	if err != nil {
		return nil, err
	}
	if c.hedge.After < 0 {
		return nil, fmt.Errorf("serve: negative hedge delay %v", c.hedge.After)
	}
	if c.hedge.After > 0 && c.rep == nil {
		return nil, fmt.Errorf("serve: hedging requires a failover replica scheme (WithFailover)")
	}
	switch {
	case c.drain < 0:
		return nil, fmt.Errorf("serve: negative drain timeout %v", c.drain)
	case c.drain == 0:
		c.drain = 5 * time.Second
	}
	h, err := NewBreakers(c.brk, f.Disks())
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		rep:     c.rep,
		inj:     c.inj,
		health:  h,
		hedge:   c.hedge,
		adm:     adm,
		drain:   c.drain,
		drained: make(chan struct{}),
	}
	if c.obs != nil {
		s.obs = c.obs
		s.metrics = newServeMetrics(c.obs.Registry())
		h.attachObs(s.metrics.breakerOpened, s.metrics.breakerHalfOpened, s.metrics.breakerClosed)
		if c.nodeSet {
			if c.node < 0 {
				return nil, fmt.Errorf("serve: negative node metrics slot %d", c.node)
			}
			s.metrics.attachNodeMetrics(c.obs.Registry(), c.node)
		}
	}

	reader := c.reader
	if reader == nil {
		reader = exec.NewFileReader(f)
	}
	if c.baseLatency < 0 {
		return nil, fmt.Errorf("serve: negative base latency %v", c.baseLatency)
	}
	if c.baseLatency > 0 {
		if floor := TimerFloor(); c.baseLatency < floor {
			s.warnings = append(s.warnings, fmt.Sprintf(
				"serve: base latency %v is below the host timer floor %v and was clamped to it; "+
					"reads could never have completed faster", c.baseLatency, floor))
			c.baseLatency = floor
		}
		reader, err = NewLatencyReader(reader, c.baseLatency, c.inj)
		if err != nil {
			return nil, err
		}
	}
	execOpts := []exec.Option{
		exec.WithBucketReader(reader),
		exec.WithAvoid(s.health.Open),
	}
	// User wrappers first, then the scheduler's observation/hedging
	// wrapper: exec applies later wrappers outermost, so servedReader
	// stays the outermost layer and observes wrapped reads.
	for _, wrap := range c.wraps {
		execOpts = append(execOpts, exec.WithReadWrapper(wrap))
	}
	execOpts = append(execOpts, exec.WithReadWrapper(func(inner exec.BucketReader) exec.BucketReader {
		return s.newServedReader(inner)
	}))
	if c.inj != nil {
		execOpts = append(execOpts, exec.WithFaults(c.inj))
	}
	if c.rep != nil {
		execOpts = append(execOpts, exec.WithFailover(c.rep))
	}
	if c.retrySet {
		execOpts = append(execOpts, exec.WithRetry(c.retry))
	}
	if c.obs != nil {
		execOpts = append(execOpts, exec.WithObserver(c.obs))
	}
	s.ex, err = exec.New(f, execOpts...)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Search admits and runs one default-priority range search.
func (s *Scheduler) Search(ctx context.Context, r grid.Rect) (*exec.Result, error) {
	return s.Do(ctx, Query{Rect: r})
}

// Do admits and runs one query. It blocks while the query waits in the
// admission queue; shed queries return a typed *OverloadedError (or
// ctx.Err() when the caller gave up first), and a draining scheduler
// returns ErrClosed.
func (s *Scheduler) Do(ctx context.Context, q Query) (*exec.Result, error) {
	return s.do(ctx, serveOp{kind: opRect, rect: q.Rect, prio: q.Priority})
}

// DoPages is Do for a caller that only encodes the answer: the Result
// carries each bucket's page in Pages instead of a copy of the records
// in Records (exec.Executor.RangeSearchPages). Admission, stats and
// tracing are Do's.
func (s *Scheduler) DoPages(ctx context.Context, q Query) (*exec.Result, error) {
	return s.do(ctx, serveOp{kind: opPages, rect: q.Rect, prio: q.Priority})
}

// BucketQuery is one admission unit naming an explicit bucket set —
// the shape of a physical read the batch engine dispatches after
// deduping shared buckets across a group of logical queries. It rides
// the same admission queue, breakers, hedging, and failover as a
// rectangle query and counts in the same Stats/metrics, so every
// conservation identity spans both shapes.
type BucketQuery struct {
	// Buckets are distinct row-major bucket numbers; within each disk
	// they are read in the order given.
	Buckets []int
	// Priority orders queued queries exactly as Query.Priority.
	Priority int
}

// DoBuckets admits and runs one explicit bucket-set read. Semantics
// match Do in every respect — blocking admission, shed and closed
// errors, stats accounting.
func (s *Scheduler) DoBuckets(ctx context.Context, q BucketQuery) (*exec.Result, error) {
	return s.do(ctx, serveOp{kind: opBuckets, buckets: q.Buckets, prio: q.Priority})
}

// serveOp is one admission unit, plain data instead of the label/run
// closure pair do used to take — two heap allocations per query the
// zero-alloc hot path cannot afford. The trace label is formatted only
// when tracing is on, and dispatch is a switch on kind.
type serveOp struct {
	kind    opKind
	rect    grid.Rect
	buckets []int
	prio    int
}

type opKind uint8

const (
	opRect opKind = iota
	opBuckets
	opPages // a rect answered as pages
)

// label formats the op's trace name; called only on the traced path.
func (o *serveOp) label() string {
	if o.kind != opBuckets {
		return fmt.Sprintf("query %v prio %d", o.rect, o.prio)
	}
	return fmt.Sprintf("bucketset n=%d prio %d", len(o.buckets), o.prio)
}

// do is the shared admission-and-execution lifecycle of Do, DoPages and
// DoBuckets: count issued, trace, admit, run, classify the outcome.
func (s *Scheduler) do(ctx context.Context, o serveOp) (*exec.Result, error) {
	m := &s.metrics
	m.issued.Inc()
	var start time.Time
	if m.queryLatency != nil {
		start = time.Now()
	}
	var tr *obs.Trace
	if s.obs.Tracing() {
		tr = s.obs.StartTrace(o.label())
		defer s.obs.FinishTrace(tr)
	}
	asp := tr.Root().Child("admit")
	if err := s.admit(ctx, o.prio); err != nil {
		asp.FinishErr(err)
		tr.Root().Annotate("shed")
		return nil, err
	}
	asp.Finish()
	s.stats.Admitted.Add(1)
	m.admitted.Inc()
	defer s.release()
	esp := tr.Root().Child("exec")
	ectx := obs.ContextWithSpan(ctx, esp)
	var res *exec.Result
	var err error
	switch o.kind {
	case opRect:
		res, err = s.ex.RangeSearch(ectx, o.rect)
	case opPages:
		res, err = s.ex.RangeSearchPages(ectx, o.rect)
	default:
		res, err = s.ex.RangeSearchBuckets(ectx, o.buckets)
	}
	esp.FinishErr(err)
	switch {
	case err == nil:
		s.stats.Completed.Add(1)
		m.completed.Inc()
		if m.queryLatency != nil {
			m.queryLatency.Observe(time.Since(start))
		}
	case errors.Is(err, fault.ErrUnavailable):
		s.stats.Unavailable.Add(1)
		m.unavailable.Inc()
		tr.Root().Annotate("unavailable")
	default:
		s.stats.Failed.Add(1)
		m.failed.Inc()
		tr.Root().Annotate("failed")
	}
	return res, err
}

// admit blocks until the query holds an execution slot, is shed, or
// its context ends. On nil return the caller owns one slot and must
// release() it.
func (s *Scheduler) admit(ctx context.Context, prio int) error {
	m := &s.metrics
	if err := ctx.Err(); err != nil {
		s.stats.Abandoned.Add(1)
		m.abandoned.Inc()
		m.nodeShed.Inc()
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		m.closedShed.Inc()
		m.nodeShed.Inc()
		return ErrClosed
	}
	if s.inFlight < s.adm.MaxInFlight && len(s.waiters) == 0 {
		s.inFlight++
		m.inFlight.Add(1)
		s.mu.Unlock()
		return nil
	}
	if len(s.waiters) >= s.adm.MaxQueue {
		victim := s.lowestLocked()
		if victim == nil || victim.prio >= prio {
			qlen, inflight := len(s.waiters), s.inFlight
			s.mu.Unlock()
			s.stats.Rejected.Add(1)
			m.rejected.Inc()
			m.nodeShed.Inc()
			return &OverloadedError{QueueLen: qlen, InFlight: inflight}
		}
		s.decideLocked(victim, &OverloadedError{
			QueueLen: len(s.waiters), InFlight: s.inFlight, Evicted: true,
		})
		s.stats.Evicted.Add(1)
		m.evicted.Inc()
		m.nodeShed.Inc()
	}
	w := &waiter{prio: prio, seq: s.seq, ctx: ctx, outcome: make(chan error, 1)}
	s.seq++
	heap.Push(&s.waiters, w)
	m.queueDepth.Add(1)
	m.nodeQueueDepth.Set(int64(len(s.waiters)))
	s.mu.Unlock()
	var qstart time.Time
	if m.queueWait != nil {
		qstart = time.Now()
	}

	select {
	case err := <-w.outcome:
		if err == nil && m.queueWait != nil {
			m.queueWait.Observe(time.Since(qstart))
		}
		return err
	case <-ctx.Done():
		s.mu.Lock()
		if !w.decided {
			heap.Remove(&s.waiters, w.idx)
			w.decided = true
			m.queueDepth.Add(-1)
			m.nodeQueueDepth.Set(int64(len(s.waiters)))
			s.mu.Unlock()
			s.stats.Abandoned.Add(1)
			m.abandoned.Inc()
			m.nodeShed.Inc()
			return ctx.Err()
		}
		s.mu.Unlock()
		// Decided concurrently with our cancellation: honour the
		// decision — a granted slot must be released, a shed stands.
		err := <-w.outcome
		if err == nil {
			s.release()
			s.stats.Abandoned.Add(1)
			m.abandoned.Inc()
			m.nodeShed.Inc()
			return ctx.Err()
		}
		return err
	}
}

// release returns one execution slot and dispatches waiters into the
// freed capacity.
func (s *Scheduler) release() {
	s.mu.Lock()
	s.inFlight--
	s.metrics.inFlight.Add(-1)
	s.dispatchLocked()
	s.mu.Unlock()
}

// dispatchLocked grants freed slots to the best waiters, dropping any
// whose context has already ended, and completes the drain once the
// scheduler is closed and idle. Callers hold s.mu.
//
// The scalar gauges serve.queue.depth and serve.inflight move by deltas,
// here and at every other site that changes what they count, because
// schedulers sharing one sink share them: each gauge is the sum over its
// schedulers, where a Set would hold whichever wrote last.
func (s *Scheduler) dispatchLocked() {
	m := &s.metrics
	for s.inFlight < s.adm.MaxInFlight && len(s.waiters) > 0 {
		w := heap.Pop(&s.waiters).(*waiter)
		w.decided = true
		m.queueDepth.Add(-1)
		if w.ctx.Err() != nil {
			s.stats.Expired.Add(1)
			m.expired.Inc()
			m.nodeShed.Inc()
			w.outcome <- w.ctx.Err()
			continue
		}
		s.inFlight++
		m.inFlight.Add(1)
		w.outcome <- nil
	}
	m.nodeQueueDepth.Set(int64(len(s.waiters)))
	if s.closed && s.inFlight == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
}

// decideLocked removes w from the queue with the given outcome.
// Callers hold s.mu.
func (s *Scheduler) decideLocked(w *waiter, err error) {
	heap.Remove(&s.waiters, w.idx)
	w.decided = true
	s.metrics.queueDepth.Add(-1)
	s.metrics.nodeQueueDepth.Set(int64(len(s.waiters)))
	w.outcome <- err
}

// lowestLocked returns the queued waiter an eviction would shed: the
// lowest priority, latest arrival. Callers hold s.mu.
func (s *Scheduler) lowestLocked() *waiter {
	var victim *waiter
	for _, w := range s.waiters {
		if victim == nil || w.prio < victim.prio ||
			(w.prio == victim.prio && w.seq > victim.seq) {
			victim = w
		}
	}
	return victim
}

// Close stops admissions, sheds the queue with ErrClosed, and waits up
// to the drain timeout for in-flight queries to finish. It returns the
// final snapshot either way; the error reports a drain-deadline
// overrun, or ErrClosed when Close had already been called.
func (s *Scheduler) Close() (*Snapshot, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.snapshot(), ErrClosed
	}
	s.closed = true
	s.metrics.queueDepth.Add(-int64(len(s.waiters)))
	for len(s.waiters) > 0 {
		w := heap.Pop(&s.waiters).(*waiter)
		w.decided = true
		s.metrics.closedShed.Inc()
		s.metrics.nodeShed.Inc()
		w.outcome <- ErrClosed
	}
	s.metrics.nodeQueueDepth.Set(0)
	if s.inFlight == 0 {
		close(s.drained)
	}
	s.mu.Unlock()

	t := time.NewTimer(s.drain)
	defer t.Stop()
	select {
	case <-s.drained:
		return s.snapshot(), nil
	case <-t.C:
		return s.snapshot(), fmt.Errorf("serve: drain deadline %v exceeded with queries still in flight", s.drain)
	}
}

// Stats snapshots the lifetime counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Admitted:     s.stats.Admitted.Load(),
		Completed:    s.stats.Completed.Load(),
		Unavailable:  s.stats.Unavailable.Load(),
		Failed:       s.stats.Failed.Load(),
		Rejected:     s.stats.Rejected.Load(),
		Evicted:      s.stats.Evicted.Load(),
		Expired:      s.stats.Expired.Load(),
		Abandoned:    s.stats.Abandoned.Load(),
		HedgesIssued: s.stats.HedgesIssued.Load(),
		HedgesWon:    s.stats.HedgesWon.Load(),
		BreakerTrips: s.health.Trips(),
	}
}

// QueueDepth returns the current admission-queue length — the live
// backpressure signal health probes report between drains.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// HealthSnapshot copies every disk's current health and breaker state.
func (s *Scheduler) HealthSnapshot() []DiskHealth { return s.health.Snapshot() }

// Warnings returns the configuration adjustments New made — currently
// only a WithBaseLatency value clamped up to the host timer floor. The
// slice is a copy; an empty result means the configuration was applied
// verbatim.
func (s *Scheduler) Warnings() []string {
	return append([]string(nil), s.warnings...)
}

var (
	timerFloorOnce sync.Once
	timerFloor     time.Duration
)

// TimerFloor reports the host's measured timer granularity: the
// shortest wall-clock delay a 1µs Go timer actually achieves, measured
// once per process (minimum of a few probes, so a loaded machine does
// not inflate it). A simulated base latency below this floor is
// unachievable — the timer rounds it up — so New clamps WithBaseLatency
// values to it and records a warning.
func TimerFloor() time.Duration {
	timerFloorOnce.Do(func() {
		timerFloor = time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			t := time.NewTimer(time.Microsecond)
			<-t.C
			if d := time.Since(start); d < timerFloor {
				timerFloor = d
			}
		}
		if timerFloor < time.Microsecond {
			timerFloor = time.Microsecond
		}
	})
	return timerFloor
}

// snapshot builds the Close report.
func (s *Scheduler) snapshot() *Snapshot {
	return &Snapshot{Stats: s.Stats(), Disks: s.health.Snapshot()}
}

// waiter is one query blocked in the admission queue.
type waiter struct {
	prio    int
	seq     uint64
	ctx     context.Context
	outcome chan error // buffered; exactly one decision is ever sent
	decided bool       // guarded by Scheduler.mu
	idx     int        // heap index, maintained by waitq
}

// waitq is a max-heap of waiters: higher priority first, FIFO within a
// priority.
type waitq []*waiter

func (q waitq) Len() int { return len(q) }
func (q waitq) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q waitq) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *waitq) Push(x interface{}) {
	w := x.(*waiter)
	w.idx = len(*q)
	*q = append(*q, w)
}
func (q *waitq) Pop() interface{} {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return w
}
