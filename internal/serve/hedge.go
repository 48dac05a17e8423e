package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/hedge"
	"decluster/internal/obs"
)

// HedgeConfig tunes speculative backup reads.
type HedgeConfig struct {
	// After is how long a bucket read may run before a speculative
	// backup read is issued against the bucket's other replica
	// (0 disables hedging). Choose it near the healthy read-latency
	// tail — e.g. an observed p95 — so only stragglers are hedged.
	// With hedging on, a primary read that fails outright also fails
	// over to the live replica at once instead of waiting for the retry
	// loop to re-try the same sick disk.
	After time.Duration
}

// servedReader is the per-query reader the scheduler installs via
// exec.WithReadWrapper: it observes every read's latency and outcome
// into the health tracker and — when hedging is configured — races a
// speculative backup read against slow primaries. It is outermost, so
// it sees injected faults; reads it issues itself (the hedge leg) go
// back through the per-query fault layer via inner.
//
// A healthy read costs one clock read, its end: chain[d] holds the stamp
// disk d's next read starts at, the end of its last read. The executor
// reads disk d only from d's worker, one read at a time, so each entry
// has one writer and the gap between two reads (the worker's loop, well
// under a microsecond) counts toward the second. A read that erred or
// was hedged leaves 0, and the next read takes a fresh stamp: a retry
// backoff or a race's second leg never counts as read time. Hedge legs
// take stamps of their own and never write the chain.
type servedReader struct {
	s     *Scheduler
	inner exec.BucketReader
	chain []int64
}

func (s *Scheduler) newServedReader(inner exec.BucketReader) *servedReader {
	return &servedReader{s: s, inner: inner, chain: make([]int64, len(s.health.disks))}
}

// ReadBucket serves one bucket read with observation and optional
// hedging (hedge.Racer: exactly one leg's records are returned, and the
// loser's health and metric observations have landed — the conservation
// invariants count on that). A lost leg's context error is not charged
// against its disk.
func (r *servedReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	s := r.s
	start := r.chain[disk]
	if start == 0 {
		start = hedge.Now()
	}
	r.chain[disk] = 0 // until this read ends clean
	alt, after := s.altDisk(disk, bucket)
	if alt < 0 {
		recs, end, err := r.observe(ctx, disk, bucket, start)
		if err == nil {
			r.chain[disk] = end
		}
		return recs, err
	}
	br := bucketRaces.Get().(*bucketRace)
	br.r, br.bucket, br.start = r, bucket, start
	recs, winner, hedged, err := br.racer.Race(ctx, start, after, disk, alt, br.leg, preferTransient)
	if err == nil && !hedged {
		r.chain[disk] = br.end
	}
	br.r = nil
	bucketRaces.Put(br)
	if hedged && err == nil && winner == alt {
		s.stats.HedgesWon.Add(1)
		s.metrics.hedgesWon.Inc()
	}
	return recs, err
}

// bucketRace is what one hedged bucket read needs beyond its arguments,
// pooled: the Racer with its watchdog and leg context, and the leg
// function, bound to this struct once so that a read builds no closure.
// A disk worker reads its buckets one after another under one query
// context and keeps drawing the Racer it just put back, so the leg
// context is made about once per worker per query, not once per read.
type bucketRace struct {
	racer  hedge.Racer[[]datagen.Record]
	leg    func(ctx context.Context, disk int, hedgeLeg bool) ([]datagen.Record, error)
	r      *servedReader
	bucket int
	// start is the read's stamp; end, the primary leg's end stamp, is
	// written by that leg on the caller's goroutine.
	start, end int64
}

var bucketRaces = sync.Pool{New: func() any {
	br := new(bucketRace)
	br.leg = br.read
	return br
}}

// read is a race's leg: one observed read of the bucket from disk d.
func (br *bucketRace) read(ctx context.Context, d int, hedgeLeg bool) ([]datagen.Record, error) {
	r := br.r
	if !hedgeLeg {
		recs, end, err := r.observe(ctx, d, br.bucket, br.start)
		br.end = end
		return recs, err
	}
	s := r.s
	s.stats.HedgesIssued.Add(1)
	s.metrics.hedgesIssued.Inc()
	// The hedge leg's span hangs off the executor's attempt span, which
	// rides the context.
	var sp *obs.Span
	if s.obs.Tracing() {
		sp = obs.SpanFromContext(ctx).Child(fmt.Sprintf("hedge d%d", d))
	}
	recs, _, err := r.observe(ctx, d, br.bucket, hedge.Now())
	sp.FinishErr(err)
	return recs, err
}

// preferTransient picks the error a doubly failed read reports: if one
// leg hit a fail-stop disk (mid-flight failure) and the other merely a
// transient blip, the executor's retry loop must get the transient
// error so the next attempt — which hedges again — can still answer
// the query.
func preferTransient(cur, next error) error {
	if !errors.Is(cur, fault.ErrTransient) && errors.Is(next, fault.ErrTransient) {
		return next
	}
	return cur
}

// observe times one read that began at the stamp start against the
// inner (fault-injecting) reader, records the outcome in the health
// tracker, and returns the read's end stamp.
func (r *servedReader) observe(ctx context.Context, disk, bucket int, start int64) ([]datagen.Record, int64, error) {
	recs, err := r.inner.ReadBucket(ctx, disk, bucket)
	end := hedge.Now()
	elapsed := time.Duration(end - start)
	r.s.health.Observe(disk, elapsed, err)
	m := &r.s.metrics
	m.legs.Inc()
	if m.legLatency != nil {
		m.legLatency.Observe(elapsed)
	}
	return recs, end, err
}

// altDisk returns the other replica of bucket — the hedge target — and
// the delay after which to hedge to it; -1 when hedging is off or no
// other live replica exists (it is the serving disk itself, or
// fail-stop). A zero delay leaves only the on-error failover: the timed
// hedge is a bet on latency, closed when hedge.Worth says the backup
// would lose it and when the backup's breaker is open. An open breaker
// does not make the replica unreadable, though, so it stays the backup
// for a primary that fails outright (a disk that went fail-stop after
// routing) — the rule exec.route states: avoidance must never turn an
// answerable read into a failed one.
func (s *Scheduler) altDisk(disk, bucket int) (alt int, after time.Duration) {
	if s.hedge.After <= 0 || s.rep == nil {
		return -1, 0
	}
	alt = s.rep.BackupOf(bucket)
	if alt == disk {
		alt = s.rep.PrimaryOf(bucket)
	}
	if alt == disk || (s.inj != nil && s.inj.DiskFailed(alt)) {
		return -1, 0
	}
	if s.health.Allow(alt) && hedge.Worth(s.hedge.After, s.health.EWMALatency(disk), s.health.EWMALatency(alt)) {
		after = s.hedge.After
	}
	return alt, after
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
