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
// exec.WithReadWrapper: it books every read's latency and outcome in
// the health tracker and — when hedging is configured — races a
// speculative backup read against slow primaries. It is outermost, so
// it sees injected faults; reads it issues itself (the hedge leg) go
// back through the per-query fault layer via inner.
//
// The executor reads disk d only from d's worker, one read at a time,
// and ends that worker's run — its reads of d for this query — with
// EndRun before the query returns. So slots[d] has one writer, and what
// a healthy read costs is kept there across the run:
//
//   - one clock read, its end. The chain stamp is where d's next read
//     starts, the end of its last read, so the gap between two reads
//     (the worker's loop, well under a microsecond) counts toward the
//     second. A read that erred or was hedged leaves 0, and the next read
//     takes a fresh stamp: a retry backoff or a race's second leg never
//     counts as read time.
//   - no lock. A clean read on a closed breaker joins the slot's pending
//     run, which is folded into the tracker in one locked step (see
//     observe for when); the tracker's lock and cache line are touched
//     once per run, not by every read of every in-flight query.
//   - no pool round trip. The run draws its bucketRace at its first race
//     and keeps it until EndRun.
//
// Hedge and failover legs take stamps of their own, are observed one by
// one and never touch a slot.
type servedReader struct {
	s     *Scheduler
	inner exec.BucketReader
	slots []diskSlot
}

// diskSlot is one disk's run state, written only by that disk's worker
// and padded to a cache line so that no two workers write one line.
type diskSlot struct {
	chain int64       // the stamp the disk's next read starts at, 0 for a fresh one
	since int64       // the start stamp of the run's first pending read
	run   cleanRun    // clean reads not yet folded into the tracker
	race  *bucketRace // the run's race state, nil until its first race
	_     [8]byte
}

func (s *Scheduler) newServedReader(inner exec.BucketReader) *servedReader {
	return &servedReader{s: s, inner: inner, slots: make([]diskSlot, len(s.health.disks))}
}

// ReadBucket serves one bucket read with observation and optional
// hedging (hedge.Racer: exactly one leg's records are returned, and the
// loser's health and metric observations have landed — the conservation
// invariants count on that). A lost leg's context error is not charged
// against its disk.
func (r *servedReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	s := r.s
	sl := &r.slots[disk]
	start := sl.chain
	if start == 0 {
		start = hedge.Now()
	}
	sl.chain = 0 // until this read ends clean
	alt, after := s.altDisk(disk, bucket)
	if alt < 0 {
		recs, end, err := r.observe(ctx, disk, bucket, start, sl)
		if err == nil {
			sl.chain = end
		}
		return recs, err
	}
	br := sl.race
	if br == nil {
		br = bucketRaces.Get().(*bucketRace)
		br.r, sl.race = r, br
	}
	br.bucket, br.start = bucket, start
	recs, winner, hedged, err := br.racer.Race(ctx, start, after, disk, alt, br.leg, preferTransient)
	if err == nil && !hedged {
		sl.chain = br.end
	}
	if hedged && err == nil && winner == alt {
		s.stats.HedgesWon.Add(1)
		s.metrics.hedgesWon.Inc()
	}
	return recs, err
}

// EndRun implements exec.RunEnder: disk's worker has made its last read
// of the query. The run's pending clean reads are folded into the
// tracker, and its bucketRace goes back to the pool.
func (r *servedReader) EndRun(disk int) {
	sl := &r.slots[disk]
	r.s.health.fold(disk, &sl.run)
	if br := sl.race; br != nil {
		sl.race, br.r = nil, nil
		bucketRaces.Put(br)
	}
}

// bucketRace is what a run's hedged bucket reads need beyond their
// arguments, pooled: the Racer with its watchdog and leg context, and
// the leg function, bound to this struct once so that a read builds no
// closure. A disk worker reads its buckets one after another under one
// query context, so the leg context is made once per run, and only when
// the run's worker draws a Racer that last served another query.
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
		recs, end, err := r.observe(ctx, d, br.bucket, br.start, &r.slots[d])
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
	recs, _, err := r.observe(ctx, d, br.bucket, hedge.Now(), nil)
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
// inner (fault-injecting) reader, books the outcome in the health
// tracker, and returns the read's end stamp. sl is the disk's slot when
// the read is its worker's own, nil for a hedge or failover leg, which
// is observed on its own. A worker's clean read on a closed breaker joins
// the slot's pending run instead, and the run is folded
//
//   - at EndRun;
//   - before any other outcome on the disk is observed, so that a streak
//     of errors keeps its order against the clean reads before it;
//   - once it spans foldSpan, so that within one long query the disk's
//     EWMA — the hedge gate's input — lags by at most that span.
//
// While the breaker is not closed every read is observed one by one, so
// half-open probes count exactly as they always did.
func (r *servedReader) observe(ctx context.Context, disk, bucket int, start int64, sl *diskSlot) ([]datagen.Record, int64, error) {
	recs, err := r.inner.ReadBucket(ctx, disk, bucket)
	end := hedge.Now()
	elapsed := time.Duration(end - start)
	h := r.s.health
	switch {
	case sl == nil:
		h.Observe(disk, elapsed, err)
	case err == nil && h.closed(disk):
		if sl.run.n == 0 {
			sl.since = start
		}
		sl.run.add(float64(elapsed), h.cfg.Alpha)
		if end-sl.since >= r.s.foldSpan {
			h.fold(disk, &sl.run)
		}
	default:
		h.fold(disk, &sl.run)
		h.Observe(disk, elapsed, err)
	}
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
// fail-stop: no holder at all). The delay is Breakers.Backup's, the rule
// the router follows over nodes; a zero delay leaves only the on-error
// failover. Backup offers no holder behind an open breaker, but an open
// breaker does not make the replica unreadable, so it stays the backup
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
	holders := [2]int{disk, alt}
	_, after = s.health.Backup(holders[:], disk, s.hedge.After)
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
