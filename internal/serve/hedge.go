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
	// tail — e.g. an observed p95 — so only stragglers are hedged. The
	// delay runs from the read's stamp, which for a read timed in a
	// batch (see servedReader) is the batch's: a batch opens only on a
	// disk whose EWMA puts its reads within After/8, and a read that
	// comes due closes it. When a read comes due, the backup goes only
	// if the hedge gate
	// (Breakers.Backup) still gives it a delay. With hedging on, a
	// primary read that fails outright also fails over to the live
	// replica at once instead of waiting for the retry loop to re-try
	// the same sick disk.
	After time.Duration
}

const (
	// batchReads is the most clean reads of one disk that one clock
	// read times.
	batchReads = 16
	// batchStale bounds how stale a batched read's stamp may be: a batch
	// opens only on a disk whose EWMA says batchReads reads span at most
	// foldSpan/batchStale.
	batchStale = 8
)

// servedReader is the per-query reader the scheduler installs via
// exec.WithReadWrapper: it books every read's latency and outcome in
// the health tracker and — when hedging is configured — races a
// speculative backup read against slow primaries. It is outermost, so
// it sees injected faults; reads it issues itself (the hedge leg) go
// back through the per-query fault layer via inner.
//
// The executor reads disk d's run — its reads of d for this query — on
// the one goroutine that claimed it, one read at a time, and ends the run
// with EndRun before the query returns. So slots[d] has one writer, and
// what a healthy read costs is kept there across the run:
//
//   - no clock read. The chain stamp is where d's next read starts, the
//     end of its last timed read, so the gap between two reads (the
//     run's loop, well under a microsecond) counts toward the second.
//     Clean reads on a closed breaker of a disk whose EWMA is warm and
//     at most foldSpan/(batchStale·batchReads) share one clock read per
//     batch of up to batchReads: each starts — and races — from the
//     batch's stamp, the chain, and the clock is read to close the batch
//     at its last read, at a read that errs, fails over or comes due
//     (hedged or not), on a breaker that is not closed, and at EndRun.
//     Each read is then booked as the batch mean; one that closes the
//     batch unbooked (cancelled, or failed) still takes its share. A cold
//     or slower disk times every read, and so does every disk while a
//     latency histogram (WithObserver) is attached. A read that erred or
//     came due leaves the chain 0, and the next read takes a fresh stamp:
//     a retry backoff or a race's second leg never counts as read time,
//     and no read races from a stamp already a delay old.
//   - no lock. A clean read on a closed breaker joins the slot's pending
//     run, which is folded into the tracker in one locked step (see
//     observe for when); the tracker's lock and cache line are touched
//     once per run, not by every read of every in-flight query.
//   - no hedge gate. A race is armed at the configured delay whenever the
//     bucket has a live other replica; the gate is asked only of a race
//     that comes due (hedgeWorth).
//   - no pool round trip. The run draws its bucketRace at its first race
//     and keeps it until EndRun.
//
// Hedge and failover legs take stamps of their own, are observed one by
// one and never touch a slot. Every stamp is read from the tracker's
// clock, Breakers.now.
type servedReader struct {
	s     *Scheduler
	inner exec.BucketReader
	slots []diskSlot
}

// diskSlot is one disk's run state, written only by the goroutine
// reading that disk's run and padded to a cache line so that no two
// runners write one line.
type diskSlot struct {
	chain int64       // the stamp the disk's next read starts at, 0 for a fresh one; an open batch's stamp
	since int64       // the start stamp of the run's first pending read
	run   cleanRun    // clean reads not yet folded into the tracker
	race  *bucketRace // the run's race state, nil until its first race
	batch int         // the open batch's reads, none of them timed yet
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
		start = s.health.now()
		sl.chain = start // the stamp of a batch this read opens
	}
	alt := s.altDisk(disk, bucket)
	if alt < 0 {
		recs, next, err := r.observe(ctx, disk, bucket, start, sl)
		sl.chain = next
		return recs, err
	}
	br := sl.race
	if br == nil {
		br = bucketRaces.Get().(*bucketRace)
		br.r, sl.race = r, br
	}
	br.bucket, br.start, br.asked = bucket, start, false
	recs, winner, hedged, err := br.racer.Race(ctx, start, s.hedge.After, disk, alt, br.leg, preferTransient)
	if !hedged && !br.asked {
		sl.chain = br.next
		return recs, err
	}
	// The read came due. A batch it joined is timed now, and the next
	// read takes a fresh stamp rather than race from one already a delay
	// old.
	r.closeBatch(disk, sl)
	sl.chain = 0
	if err == nil && winner == alt {
		s.stats.HedgesWon.Add(1)
		s.metrics.hedgesWon.Inc()
	}
	return recs, err
}

// EndRun implements exec.RunEnder: disk's run has made its last read
// of the query. The run's open batch is timed, its pending clean reads
// are folded into the tracker, and its bucketRace goes back to the pool.
func (r *servedReader) EndRun(disk int) {
	sl := &r.slots[disk]
	r.closeBatch(disk, sl)
	r.s.health.fold(disk, &sl.run)
	if br := sl.race; br != nil {
		sl.race, br.r = nil, nil
		bucketRaces.Put(br)
	}
}

// bucketRace is what a run's hedged bucket reads need beyond their
// arguments, pooled: the Racer with its watchdog and leg context, and
// the leg and gate functions, bound to this struct once so that a read
// builds no closure. A disk's run reads its buckets one after another
// under one query context, so the leg context is made once per run, and
// only when the run draws a Racer that last served another query.
type bucketRace struct {
	racer  hedge.Racer[[]datagen.Record]
	leg    func(ctx context.Context, disk int, hedgeLeg bool) ([]datagen.Record, error)
	r      *servedReader
	bucket int
	// start is the read's stamp; next, the primary leg's chain stamp for
	// the disk's next read, is written by that leg on the caller's
	// goroutine.
	start, next int64
	// asked records that the watchdog asked the gate: written on its
	// goroutine before it sends on the race's done channel, read by the
	// caller after Race received.
	asked bool
}

var bucketRaces = sync.Pool{New: func() any {
	br := new(bucketRace)
	br.leg = br.read
	br.racer.Gate = br.worth
	return br
}}

// read is a race's leg: one observed read of the bucket from disk d.
func (br *bucketRace) read(ctx context.Context, d int, hedgeLeg bool) ([]datagen.Record, error) {
	r := br.r
	if !hedgeLeg {
		recs, next, err := r.observe(ctx, d, br.bucket, br.start, &r.slots[d])
		br.next = next
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
	recs, _, err := r.observe(ctx, d, br.bucket, s.health.now(), nil)
	sp.FinishErr(err)
	return recs, err
}

// worth is the race's gate, asked by its watchdog when the race comes
// due.
func (br *bucketRace) worth(primary, backup int) bool {
	br.asked = true
	return br.r.s.hedgeWorth(primary, backup)
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

// observe serves one read that began at the stamp start from the inner
// (fault-injecting) reader, books the outcome in the health tracker, and
// returns the stamp the disk's next read starts at: start while a batch
// is open, the read's end once timed, 0 after an error. sl is the disk's
// slot when the read is its run's own, nil for a hedge or failover
// leg, which is timed and observed on its own. A run's clean read on
// a closed breaker joins the open batch, or opens one (see servedReader),
// and its sample joins the slot's pending run, which is folded
//
//   - at EndRun;
//   - before any other outcome on the disk is observed, so that a streak
//     of errors keeps its order against the clean reads before it;
//   - once it spans foldSpan, so that within one long query the disk's
//     EWMA — the hedge gate's input — lags by at most that span, give or
//     take a batch.
//
// While the breaker is not closed every read is observed one by one, so
// half-open probes count exactly as they always did.
func (r *servedReader) observe(ctx context.Context, disk, bucket int, start int64, sl *diskSlot) ([]datagen.Record, int64, error) {
	recs, err := r.inner.ReadBucket(ctx, disk, bucket)
	s := r.s
	h := s.health
	m := &s.metrics
	m.legs.Inc()
	clean := sl != nil && err == nil && h.closed(disk)
	if clean && r.joins(disk, sl) {
		sl.batch++
		return recs, start, nil
	}
	end := h.now()
	n := 1 // the reads that start..end times: this one and the batch it closes
	if sl != nil {
		n += sl.batch
		sl.batch = 0
	}
	x := float64(end-start) / float64(n)
	switch {
	case sl == nil:
		h.Observe(disk, time.Duration(x), err)
	case clean:
		sl.pend(start, n, x, h.cfg.Alpha)
		if end-sl.since >= s.foldSpan {
			h.fold(disk, &sl.run)
		}
	default:
		sl.pend(start, n-1, x, h.cfg.Alpha)
		h.fold(disk, &sl.run)
		h.Observe(disk, time.Duration(x), err)
	}
	if m.legLatency != nil {
		m.legLatency.Observe(time.Duration(x))
	}
	if err != nil {
		end = 0
	}
	return recs, end, err
}

// joins reports whether a run's clean read on a closed breaker goes
// untimed: it joins the open batch short of the batch's last read, or
// opens a batch on a disk whose EWMA is set and at most batchEWMA.
func (r *servedReader) joins(disk int, sl *diskSlot) bool {
	if sl.batch > 0 {
		return sl.batch < batchReads-1
	}
	ewma := r.s.health.disks[disk].latency()
	return ewma > 0 && ewma <= r.s.batchEWMA
}

// closeBatch times the slot's open batch, if any, to now: each of its
// reads is booked as the batch mean.
func (r *servedReader) closeBatch(disk int, sl *diskSlot) {
	if sl.batch == 0 {
		return
	}
	h := r.s.health
	end := h.now()
	sl.pend(sl.chain, sl.batch, float64(end-sl.chain)/float64(sl.batch), h.cfg.Alpha)
	sl.batch = 0
	if end-sl.since >= r.s.foldSpan {
		h.fold(disk, &sl.run)
	}
}

// pend adds n clean samples of x to the slot's run; start is the stamp
// the first of them began at.
func (sl *diskSlot) pend(start int64, n int, x, alpha float64) {
	if n > 0 && sl.run.n == 0 {
		sl.since = start
	}
	for ; n > 0; n-- {
		sl.run.add(x, alpha)
	}
}

// altDisk returns the other replica of bucket — the target of the
// read's hedge and failover — or -1 when hedging is off or no other live
// replica exists (it is the serving disk itself, or fail-stop: no holder
// at all). An open breaker does not make the replica unreadable, so it
// stays the backup for a primary that fails outright (a disk that went
// fail-stop after routing) — the rule exec.route states: avoidance must
// never turn an answerable read into a failed one. Whether a timed hedge
// goes to it is hedgeWorth's call, made when the race comes due.
func (s *Scheduler) altDisk(disk, bucket int) int {
	if s.hedge.After <= 0 || s.rep == nil {
		return -1
	}
	alt := s.rep.BackupOf(bucket)
	if alt == disk {
		alt = s.rep.PrimaryOf(bucket)
	}
	if alt == disk || (s.inj != nil && s.inj.DiskFailed(alt)) {
		return -1
	}
	return alt
}

// hedgeWorth is the hedge gate, asked of a read of primary that is still
// in flight when its race comes due: whether Breakers.Backup — the rule
// the router follows over nodes — still gives the race to backup a
// delay. It does not behind an open breaker, nor when hedge.Worth says
// the backup would lose; the failover to backup stays either way.
func (s *Scheduler) hedgeWorth(primary, backup int) bool {
	holders := [2]int{primary, backup}
	b, after := s.health.Backup(holders[:], primary, s.hedge.After)
	return b == backup && after > 0
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
