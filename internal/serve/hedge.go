package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/obs"
)

// HedgeConfig tunes speculative backup reads.
type HedgeConfig struct {
	// After is how long a bucket read may run before a speculative
	// backup read is issued against the bucket's other replica
	// (0 disables hedging). Choose it near the healthy read-latency
	// tail — e.g. an observed p95 — so only stragglers are hedged.
	After time.Duration
	// OnError additionally hedges immediately when the primary read
	// fails while a live replica exists, instead of waiting for the
	// retry loop to re-try the same sick disk (default true via
	// Scheduler; set by WithHedging).
	OnError bool
}

// servedReader is the per-query reader the scheduler installs via
// exec.WithReadWrapper: it observes every read's latency and outcome
// into the health tracker and — when hedging is configured — races a
// speculative backup read against slow primaries. It is outermost, so
// it sees injected faults; reads it issues itself (the hedge leg) go
// back through the per-query fault layer via inner.
type servedReader struct {
	s     *Scheduler
	inner exec.BucketReader
}

// readRes is one leg's outcome.
type readRes struct {
	recs []datagen.Record
	err  error
	disk int
}

// ReadBucket serves one bucket read with observation and optional
// hedging. Exactly one leg's records are returned (dedup by
// construction: the loser is cancelled and its result discarded).
func (r *servedReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	s := r.s
	if s.hedge.After <= 0 {
		return r.observe(ctx, disk, bucket)
	}
	alt, ok := s.altDisk(disk, bucket)
	if !ok {
		return r.observe(ctx, disk, bucket)
	}
	// The router's hedgeCandidate rule at disk level: a timed hedge bets
	// that the backup answers before the primary does, and a backup whose
	// smoothed latency already exceeds the hedge delay loses that bet on
	// average — under saturation the extra read only deepens the queues
	// that made the primary slow. The one exception is a primary disk
	// known to be slower still: when the hedge leg, delay included, beats
	// that disk's typical read, racing it is what hedging is for. The
	// gate covers only the timed hedge — an on-error hedge is failover
	// for a read that already failed, not a bet on latency.
	backup := s.health.EWMALatency(alt)
	timed := backup <= s.hedge.After || s.hedge.After+backup < s.health.EWMALatency(disk)
	if !timed && !s.hedge.OnError {
		return r.observe(ctx, disk, bucket)
	}

	// The hedge race hangs its leg spans off the executor's attempt
	// span, which rides the context.
	var asp *obs.Span
	if s.obs.Tracing() {
		asp = obs.SpanFromContext(ctx)
	}
	hedgeSpan := func() *obs.Span {
		if asp == nil {
			return nil
		}
		return asp.Child(fmt.Sprintf("hedge d%d", alt))
	}

	// Race the primary leg against a delayed hedge leg. The loser is
	// cancelled; its context error is not charged against its disk.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan readRes, 2)
	pending := 0
	launch := func(d int, sp *obs.Span) {
		pending++
		go func() {
			recs, err := r.observe(cctx, d, bucket)
			sp.FinishErr(err)
			results <- readRes{recs: recs, err: err, disk: d}
		}()
	}
	// drain cancels and then waits out the losing legs, so every leg's
	// health and metric observations land before the read returns —
	// the conservation invariants count on that. Cancelled legs return
	// promptly: every reader layer below selects on its context.
	drain := func() {
		cancel()
		for pending > 0 {
			<-results
			pending--
		}
	}
	launch(disk, nil)

	var timerC <-chan time.Time
	if timed {
		timer := time.NewTimer(s.hedge.After)
		defer timer.Stop()
		timerC = timer.C
	}
	hedged := false
	var firstErr error
	for {
		select {
		case <-timerC:
			if !hedged {
				hedged = true
				s.stats.HedgesIssued.Add(1)
				s.metrics.hedgesIssued.Inc()
				launch(alt, hedgeSpan())
			}
		case res := <-results:
			pending--
			if res.err == nil {
				if hedged && res.disk == alt {
					s.stats.HedgesWon.Add(1)
					s.metrics.hedgesWon.Inc()
				}
				drain() // stop and collect the losing leg
				return res.recs, nil
			}
			// Prefer reporting a retryable error class: if one leg hit a
			// fail-stop disk (mid-flight failure) and the other merely a
			// transient blip, the executor's retry loop must get the
			// transient error so the next attempt — which hedges again —
			// can still answer the query.
			if firstErr == nil ||
				(!errors.Is(firstErr, fault.ErrTransient) && errors.Is(res.err, fault.ErrTransient)) {
				firstErr = res.err
			}
			if !hedged && s.hedge.OnError {
				// The primary failed outright; spend the hedge now
				// rather than waiting out the timer.
				hedged = true
				s.stats.HedgesIssued.Add(1)
				s.metrics.hedgesIssued.Inc()
				launch(alt, hedgeSpan())
				continue
			}
			if pending == 0 {
				return nil, firstErr
			}
		case <-ctx.Done():
			drain()
			return nil, ctx.Err()
		}
	}
}

// observe times one read against the inner (fault-injecting) reader
// and records the outcome in the health tracker.
func (r *servedReader) observe(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	start := time.Now()
	recs, err := r.inner.ReadBucket(ctx, disk, bucket)
	elapsed := time.Since(start)
	r.s.health.Observe(disk, elapsed, err)
	m := &r.s.metrics
	m.legs.Inc()
	if m.legLatency != nil {
		m.legLatency.Observe(elapsed)
	}
	return recs, err
}

// altDisk returns the other replica of bucket — the hedge target — if
// one exists and is worth hedging to: not the serving disk itself, not
// fail-stop, and not held open by its breaker.
func (s *Scheduler) altDisk(disk, bucket int) (int, bool) {
	if s.rep == nil {
		return 0, false
	}
	alt := s.rep.BackupOf(bucket)
	if alt == disk {
		alt = s.rep.PrimaryOf(bucket)
	}
	if alt == disk {
		return 0, false
	}
	if s.inj != nil && s.inj.DiskFailed(alt) {
		return 0, false
	}
	if !s.health.Allow(alt) {
		return 0, false
	}
	return alt, true
}

// latencyReader simulates per-read service time: every read sleeps
// base × the injector's straggler multiplier for its disk before
// delegating. The sleep selects on ctx.Done so cancellation (drain,
// deadline, a lost hedge race) interrupts it immediately. It gives the
// soak experiments a realistic latency surface over the in-memory grid
// file — without it, stragglers would be invisible to wall-clock
// percentiles and hedging would have nothing to win.
type latencyReader struct {
	inner exec.BucketReader
	base  time.Duration
	inj   *fault.Injector
}

// NewLatencyReader wraps inner so every read costs base × SlowFactor.
func NewLatencyReader(inner exec.BucketReader, base time.Duration, inj *fault.Injector) (exec.BucketReader, error) {
	if inner == nil {
		return nil, fmt.Errorf("serve: nil inner reader")
	}
	if base <= 0 {
		return nil, fmt.Errorf("serve: non-positive base latency %v", base)
	}
	return &latencyReader{inner: inner, base: base, inj: inj}, nil
}

// ReadBucket sleeps the simulated service time, then delegates.
func (r *latencyReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	d := r.base
	if r.inj != nil {
		if f := r.inj.SlowFactor(disk); f > 1 {
			d = time.Duration(float64(d) * f)
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}
