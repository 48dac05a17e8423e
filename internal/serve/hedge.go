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
	// delay runs from the read's own stamp, taken as it starts. When a
	// read comes due, the backup goes only if the hedge gate
	// (Breakers.Backup) still gives it a delay. With hedging on, a
	// primary read that fails outright also fails over to the live
	// replica at once instead of waiting for the retry loop to re-try
	// the same sick disk.
	//
	// Only a read that can wait is raced. Over a reader stack that
	// declares its reads never wait (exec.Waitless: the default grid-file
	// reader, the store reader, and the fault layer over either) a read
	// is an in-memory page access that can run late only while its
	// goroutine is descheduled, and a backup on the same CPUs cannot win.
	// Such a read keeps only the failover. On the benchmark's node-large
	// search (48×48 rect, 2,304 reads) racing every read launched no
	// backup at all, and not racing them raised its throughput 1.58×
	// (ops_per_kref 1,325 → 2,096).
	After time.Duration
}

// servedReader is the per-query reader the scheduler installs via
// exec.WithReadWrapper: it books every read's latency and outcome in
// the health tracker and — when hedging is configured — races a
// speculative backup read against slow primaries. It is outermost, so
// it sees injected faults; reads it issues itself (the hedge leg) go
// back through the per-query fault layer via inner.
//
// Whether inner's reads can wait (exec.NeverWaits, asked once per query)
// picks how a read is timed:
//
//   - a read that can wait is stamped as it starts and booked with
//     Breakers.Observe as it ends. When the bucket has a live other
//     replica it is raced against it at the configured delay, and the
//     hedge gate is asked only of a race that comes due (hedgeWorth).
//   - over a reader that never waits nothing is raced, and disk d's run —
//     its reads of d for this query, made one at a time by the one
//     goroutine that claimed it and ended with EndRun before the query
//     returns — is timed once. So slots[d] has one writer, and a clean
//     read on a closed breaker is only counted there: no clock read, no
//     lock. The clock is read at the run's first read, and again only at
//     EndRun or at a read booked on its own: a failure, or any read while
//     the breaker is not closed, so half-open probes count one by one.
//     The pending reads and the read that closes them are then each
//     booked as their mean (book). A read that fails looks up the other
//     replica and fails over to it (failover), and the next read takes a
//     fresh stamp, so a retry backoff never counts as read time.
//
// Hedge and failover legs take stamps of their own and are booked one by
// one. A run that races draws its bucketRace at its first race and keeps
// it until EndRun. Every stamp is read from the tracker's clock,
// Breakers.now.
type servedReader struct {
	s        *Scheduler
	inner    exec.BucketReader
	slots    []diskSlot
	waitless bool // inner declares its reads never wait: none is raced
}

// diskSlot is one disk's run state, written only by the goroutine
// reading that disk's run and padded to a cache line so that no two
// runners write one.
type diskSlot struct {
	chain   int64       // the stamp the run's untimed reads began at, 0 for a fresh one
	pending int         // clean reads since chain, counted and not yet timed
	race    *bucketRace // the run's race state, nil until its first race
	_       [40]byte
}

func (s *Scheduler) newServedReader(inner exec.BucketReader) *servedReader {
	return &servedReader{s: s, inner: inner, slots: make([]diskSlot, len(s.health.disks)), waitless: exec.NeverWaits(inner)}
}

// ReadBucket serves one bucket read with observation and optional
// hedging (hedge.Racer: exactly one leg's records are returned, and the
// loser's health and metric observations have landed — the conservation
// invariants count on that). A lost leg's context error is not charged
// against its disk. A read that never waits is not raced; it only fails
// over.
func (r *servedReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if r.waitless {
		recs, err := r.runRead(ctx, disk, bucket)
		if err != nil {
			return r.failover(ctx, disk, bucket, recs, err)
		}
		return recs, nil
	}
	s := r.s
	alt := s.altDisk(disk, bucket)
	if alt < 0 {
		return r.observe(ctx, disk, bucket, s.health.now())
	}
	sl := &r.slots[disk]
	br := sl.race
	if br == nil {
		br = bucketRaces.Get().(*bucketRace)
		br.r, sl.race = r, br
	}
	br.bucket, br.start = bucket, s.health.now()
	recs, winner, _, err := br.racer.Race(ctx, br.start, s.hedge.After, disk, alt, br.leg, preferTransient)
	if err == nil && winner == alt {
		s.stats.HedgesWon.Add(1)
		s.metrics.hedgesWon.Inc()
	}
	return recs, err
}

// failover answers a never-waiting read whose primary failed with err
// by the rule a race follows: the bucket's live other replica is read
// at once, as a hedge leg, and when it fails too the reported error is
// preferTransient's choice, or the context's once it is done.
func (r *servedReader) failover(ctx context.Context, disk, bucket int, recs []datagen.Record, err error) ([]datagen.Record, error) {
	s := r.s
	alt := s.altDisk(disk, bucket)
	if alt < 0 {
		return recs, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	recs, berr := r.hedgeLeg(ctx, alt, bucket)
	switch {
	case berr == nil:
		s.stats.HedgesWon.Add(1)
		s.metrics.hedgesWon.Inc()
		return recs, nil
	case ctx.Err() != nil:
		return nil, ctx.Err()
	}
	return nil, preferTransient(err, berr)
}

// EndRun implements exec.RunEnder: disk's run has made its last read
// of the query. Its pending clean reads are timed and booked, and its
// bucketRace goes back to the pool.
func (r *servedReader) EndRun(disk int) {
	sl := &r.slots[disk]
	if sl.pending > 0 {
		r.book(disk, sl, 0)
	}
	if br := sl.race; br != nil {
		br.r = nil
		bucketRaces.Put(br)
	}
	*sl = diskSlot{}
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
	start  int64 // the read's stamp
}

var bucketRaces = sync.Pool{New: func() any {
	br := new(bucketRace)
	br.leg = br.read
	br.racer.Gate = br.worth
	return br
}}

// read is a race's leg: one observed read of the bucket from disk d.
func (br *bucketRace) read(ctx context.Context, d int, hedgeLeg bool) ([]datagen.Record, error) {
	if hedgeLeg {
		return br.r.hedgeLeg(ctx, d, br.bucket)
	}
	return br.r.observe(ctx, d, br.bucket, br.start)
}

// hedgeLeg is one hedge or failover read of bucket from disk d, counted
// as an issued hedge, stamped and observed on its own.
func (r *servedReader) hedgeLeg(ctx context.Context, d, bucket int) ([]datagen.Record, error) {
	s := r.s
	s.stats.HedgesIssued.Add(1)
	s.metrics.hedgesIssued.Inc()
	// The hedge leg's span hangs off the executor's attempt span, which
	// rides the context.
	var sp *obs.Span
	if s.obs.Tracing() {
		sp = obs.SpanFromContext(ctx).Child(fmt.Sprintf("hedge d%d", d))
	}
	recs, err := r.observe(ctx, d, bucket, s.health.now())
	sp.FinishErr(err)
	return recs, err
}

// worth is the race's gate, asked by its watchdog when the race comes
// due.
func (br *bucketRace) worth(primary, backup int) bool { return br.r.s.hedgeWorth(primary, backup) }

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
// (fault-injecting) reader and books it on its own: a read that can
// wait, or a hedge or failover leg.
func (r *servedReader) observe(ctx context.Context, disk, bucket int, start int64) ([]datagen.Record, error) {
	recs, err := r.inner.ReadBucket(ctx, disk, bucket)
	s := r.s
	s.metrics.legs.Inc()
	x := time.Duration(s.health.now() - start)
	s.health.Observe(disk, x, err)
	s.metrics.legLatency.Observe(x)
	return recs, err
}

// runRead serves one read of disk's run over a reader that never waits:
// a clean read on a closed breaker is only counted, and any other is
// booked on its own, closing the run's pending reads with it (see
// servedReader).
func (r *servedReader) runRead(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	sl := &r.slots[disk]
	h := r.s.health
	if sl.chain == 0 {
		sl.chain = h.now()
	}
	recs, err := r.inner.ReadBucket(ctx, disk, bucket)
	r.s.metrics.legs.Inc()
	if err == nil && h.closed(disk) {
		sl.pending++
		return recs, nil
	}
	h.Observe(disk, r.book(disk, sl, 1), err)
	if err != nil {
		sl.chain = 0
	}
	return recs, err
}

// book reads the clock and times the slot's pending reads and the extra
// reads that close them — one read booked on its own, or none at EndRun
// — each as their mean since the slot's chain stamp. The pending reads
// are folded into the tracker before the closing read is observed, so
// that a streak of errors keeps its order against the clean reads before
// it, and all of them go to the leg histogram in one call. The clock's
// reading is where the run's next read starts; book returns the mean.
func (r *servedReader) book(disk int, sl *diskSlot, extra int) time.Duration {
	h := r.s.health
	end := h.now()
	n := sl.pending + extra
	x := float64(end-sl.chain) / float64(n)
	var run cleanRun
	for ; sl.pending > 0; sl.pending-- {
		run.add(x, h.cfg.Alpha)
	}
	h.fold(disk, &run)
	r.s.metrics.legLatency.ObserveN(time.Duration(x), n)
	sl.chain = end
	return time.Duration(x)
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
