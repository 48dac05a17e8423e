package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/exec"
	"decluster/internal/grid"
	"decluster/internal/hedge"
	"decluster/internal/obs"
	"decluster/internal/replica"
)

// The tests of the batched clock: a worker's clean reads of a warm disk
// share one clock read per batch (see servedReader). TestRunFoldBooks*
// run under an observer or on cold disks, which time every read; their
// twins here warm the disks first and attach no histogram, so that they
// book through batches.

// countClock routes s's stamps through a clock that counts its reads.
func countClock(s *Scheduler) *atomic.Int64 {
	var reads atomic.Int64
	s.health.now = func() int64 {
		reads.Add(1)
		return hedge.Now()
	}
	return &reads
}

// Every batch is booked before its query returns: after each fault-free
// hedged search the tracker has booked exactly the clean reads served,
// and the clock was read less often than a disk was.
func TestRunFoldBatchedBooksEveryReadBeforeReturn(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cr := &cutReader{inner: exec.NewFileReader(f), after: math.MaxInt64}
	s, err := New(f, WithBucketReader(cr), WithFailover(rep), WithHedging(HedgeConfig{After: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	clock := countClock(s)
	g := f.Grid()
	rng := rand.New(rand.NewSource(11))
	var clock0, clean0 int64 // counted by the end of the warm-up
	for i := 0; i < 20; i++ {
		x, y := rng.Intn(g.Dim(0)), rng.Intn(g.Dim(1))
		q := g.MustRect(grid.Coord{x / 2, y / 2}, grid.Coord{x, y})
		if i == 0 {
			q = g.FullRect() // warms every disk
		}
		res, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		if reads, _ := bookedReads(s); reads != uint64(cr.clean.Load()) {
			t.Fatalf("after search %d (%v): %d reads booked, %d clean reads served", i, q, reads, cr.clean.Load())
		}
		if i == 0 {
			clock0, clean0 = clock.Load(), cr.clean.Load()
		}
	}
	if st := s.Stats(); st.HedgesIssued != 0 {
		t.Fatalf("%d hedges: want none", st.HedgesIssued)
	}
	if n, reads := clock.Load()-clock0, cr.clean.Load()-clean0; n >= reads {
		t.Fatalf("%d clock reads for %d disk reads on warm disks: the reads were not batched", n, reads)
	}
}

// A query cut short on warm disks — cancelled mid-batch, or failed on one
// disk after k clean reads there — still books every observable read it
// made before it returns: the clean reads of every open batch, and the
// failure.
func TestRunFoldBatchedBooksCutRuns(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	q := f.Grid().FullRect()
	// warm runs one full query on s, which cr serves uncut, and returns
	// what the tracker and cr counted by then.
	warm := func(t *testing.T, s *Scheduler, cr *cutReader) (reads, clean uint64) {
		t.Helper()
		if _, err := s.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		reads, _ = bookedReads(s)
		if clean = uint64(cr.clean.Load()); reads != clean {
			t.Fatalf("warm-up: %d reads booked, %d clean reads served", reads, clean)
		}
		return reads, clean
	}

	t.Run("cancelled", func(t *testing.T) {
		rep, err := replica.NewOffset(f.Method(), 2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cr := &cutReader{inner: exec.NewFileReader(f), after: math.MaxInt64, cancel: cancel}
		s, err := New(f, WithBucketReader(cr), WithFailover(rep), WithHedging(HedgeConfig{After: time.Hour}))
		if err != nil {
			t.Fatal(err)
		}
		clock := countClock(s)
		reads0, clean0 := warm(t, s, cr)
		clock0 := clock.Load()
		const k = 37
		cr.after = cr.served.Load() + k
		if _, err := s.Search(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("cut query returned %v, want context.Canceled", err)
		}
		reads, errs := bookedReads(s)
		clean := uint64(cr.clean.Load())
		if reads-reads0 != clean-clean0 || errs != 0 || clean-clean0 != k {
			t.Fatalf("%d reads / %d errors booked; the query made %d clean reads (cut after %d) and no observable error",
				reads-reads0, errs, clean-clean0, k)
		}
		if n := clock.Load() - clock0; n >= k {
			t.Fatalf("%d clock reads for %d clean disk reads on warm disks: the reads were not batched", n, k)
		}
	})

	t.Run("failed", func(t *testing.T) {
		const disk, k = 2, 9
		broken := errors.New("disk gone")
		cr := &cutReader{inner: exec.NewFileReader(f), after: math.MaxInt64, fail: broken, failDisk: disk}
		s, err := New(f, WithBucketReader(cr))
		if err != nil {
			t.Fatal(err)
		}
		reads0, clean0 := warm(t, s, cr)
		disk0 := s.HealthSnapshot()[disk].Reads
		cr.after = cr.served.Load() + k
		if _, err := s.Search(context.Background(), q); !errors.Is(err, broken) {
			t.Fatalf("query returned %v, want the disk's failure", err)
		}
		reads, errs := bookedReads(s)
		made := uint64(cr.clean.Load()) - clean0 + uint64(cr.failed.Load())
		if reads-reads0 != made || errs != 1 || cr.failed.Load() != 1 {
			t.Fatalf("%d reads / %d errors booked; the query made %d clean reads and %d failed",
				reads-reads0, errs, uint64(cr.clean.Load())-clean0, cr.failed.Load())
		}
		if h := s.HealthSnapshot()[disk]; h.Reads-disk0 != k+1 || h.Errors != 1 {
			t.Fatalf("disk %d booked %d reads / %d errors, want %d / 1", disk, h.Reads-disk0, h.Errors, k+1)
		}
	})
}

// A warm, fast disk's clean run of n reads reads the clock at most
// ⌈n/16⌉ + 2 times — its first stamp, one per batch, and EndRun's — and
// books each read as its batch's mean. A cold disk, a slow one, and any
// disk under a latency histogram are timed read by read.
func TestRunFoldBatchedClock(t *testing.T) {
	const (
		n    = 40
		step = 1600 // the fake clock's tick per read of it, ns: a multiple of 16
	)
	f := newLoadedFile(t, 4, 3000)
	const d = 1
	var buckets []int
	for b := 0; b < f.Grid().Buckets() && len(buckets) < n; b++ {
		if f.DiskOf(b) == d && f.BucketLen(b) > 0 {
			buckets = append(buckets, b)
		}
	}
	if len(buckets) < n {
		t.Fatalf("disk %d holds %d occupied buckets, want %d", d, len(buckets), n)
	}
	brk := BreakerConfig{Cooldown: time.Hour} // foldSpan: no fold inside the run
	for _, tc := range []struct {
		name string
		warm time.Duration // the disk's EWMA before the run, 0 for cold
		opts []Option
		// batches is the run's reads per clock read after its first
		// stamp; nil times every read.
		batches []int
	}{
		{name: "warm", warm: time.Microsecond, batches: []int{16, 16, 8}},
		{name: "cold"},
		{name: "slow", warm: time.Minute},
		{name: "observed", warm: time.Microsecond, opts: []Option{WithObserver(obs.NewSink())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(f, append([]Option{WithBreaker(brk)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewBreakers(brk, 1) // the same samples, observed one by one
			if err != nil {
				t.Fatal(err)
			}
			if tc.warm > 0 {
				s.health.Observe(d, tc.warm, nil)
				want.Observe(0, tc.warm, nil)
			}
			stamp, reads := hedge.Now(), 0
			s.health.now = func() int64 {
				reads++
				stamp += step
				return stamp
			}
			r := s.newServedReader(exec.NewFileReader(f))
			for _, b := range buckets {
				if _, err := r.ReadBucket(context.Background(), d, b); err != nil {
					t.Fatal(err)
				}
			}
			r.EndRun(d)

			batches := tc.batches
			if batches == nil {
				batches = make([]int, n)
				for i := range batches {
					batches[i] = 1
				}
			}
			for _, size := range batches {
				for i := 0; i < size; i++ {
					want.Observe(0, time.Duration(step/size), nil)
				}
			}
			if limit := (n+15)/16 + 2; tc.batches != nil && reads > limit {
				t.Errorf("%d clock reads for %d reads, want at most %d", reads, n, limit)
			}
			if tc.batches == nil && reads != n+1 {
				t.Errorf("%d clock reads for %d reads, want %d: one per read and the first stamp", reads, n, n+1)
			}
			ge, gr, _, _ := trackerState(s.health, d)
			we, wr, _, _ := trackerState(want, 0)
			if math.Abs(ge-we) > 1e-9*we {
				t.Errorf("EWMA %vns, want %vns: each read booked as its batch's mean", ge, we)
			}
			if gr != wr {
				t.Errorf("%d reads booked, want %d", gr, wr)
			}
		})
	}
}

// A batch that a hedged read opened is timed from the stamp it opened
// at. A warm disk's first read of a run opens a batch, comes due, is
// hedged, and its primary answers first: the sample booked for it lies
// between the primary's delay and the read's wall time, not the clock's
// reading since its epoch.
func TestRunFoldBatchedHedgedReadTimedFromItsStamp(t *testing.T) {
	// The gap between the delay and the primary's answer outlasts a late
	// watchdog timer on a loaded host.
	const after, slow = 2 * time.Millisecond, 50 * time.Millisecond
	f := newLoadedFile(t, 4, 1000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	brk := BreakerConfig{Cooldown: time.Hour}
	s, err := New(f, WithFailover(rep), WithBreaker(brk), WithHedging(HedgeConfig{After: after}))
	if err != nil {
		t.Fatal(err)
	}
	bucket := -1
	for b := 0; b < f.Grid().Buckets() && bucket < 0; b++ {
		if f.BucketLen(b) > 0 {
			bucket = b
		}
	}
	a, b := rep.PrimaryOf(bucket), rep.BackupOf(bucket)
	const warm = time.Microsecond // opens a batch, and the gate lets the hedge go
	s.health.Observe(a, warm, nil)
	s.health.Observe(b, warm, nil)
	inner := slowDiskReader{inner: exec.NewFileReader(f), disk: a, delay: slow}
	r := s.newServedReader(slowDiskReader{inner: inner, disk: b, delay: time.Minute})

	start := hedge.Now()
	if _, err := r.ReadBucket(context.Background(), a, bucket); err != nil {
		t.Fatal(err)
	}
	took := time.Duration(hedge.Now() - start)
	r.EndRun(a)
	if st := s.Stats(); st.HedgesIssued != 1 || st.HedgesWon != 0 {
		t.Fatalf("hedges issued/won %d/%d, want 1/0: the primary answers first", st.HedgesIssued, st.HedgesWon)
	}
	bound := func(x time.Duration) float64 {
		want, err := NewBreakers(brk, 1)
		if err != nil {
			t.Fatal(err)
		}
		want.Observe(0, warm, nil)
		want.Observe(0, x, nil)
		ewma, _, _, _ := trackerState(want, 0)
		return ewma
	}
	ewma, reads, _, _ := trackerState(s.health, a)
	if lo, hi := bound(slow), bound(took); ewma < lo*(1-1e-9) || ewma > hi*(1+1e-9) {
		t.Fatalf("EWMA %v after a %v read that took %v: want it in [%v, %v]",
			time.Duration(ewma), slow, took, time.Duration(lo), time.Duration(hi))
	}
	if reads != 2 {
		t.Fatalf("%d reads booked, want 2: the warm-up and the hedged read", reads)
	}
}

// A batched read that comes due closes its batch even when the gate
// declines: it is booked with the reads before it, and the next read
// takes a fresh stamp instead of racing from one already a delay old —
// which would bring every later read of the batch due at once, each
// asking the gate again.
func TestRunFoldBatchClosesWhenItsReadComesDue(t *testing.T) {
	// The delay outlasts a scheduling hiccup of a fast read on a loaded
	// host, and the slow read outlasts a late watchdog timer.
	const after, slow = 40 * time.Millisecond, 120 * time.Millisecond
	f := newLoadedFile(t, 4, 3000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(f, WithFailover(rep), WithBreaker(BreakerConfig{Cooldown: time.Hour}), WithHedging(HedgeConfig{After: after}))
	if err != nil {
		t.Fatal(err)
	}
	const d, n = 1, 5
	var buckets []int
	for b := 0; b < f.Grid().Buckets() && len(buckets) < n; b++ {
		if rep.PrimaryOf(b) == d && f.BucketLen(b) > 0 {
			buckets = append(buckets, b)
		}
	}
	if len(buckets) < n {
		t.Fatalf("disk %d is primary of %d occupied buckets, want %d", d, len(buckets), n)
	}
	for disk := 0; disk < f.Disks(); disk++ {
		if disk == d {
			s.health.Observe(disk, time.Microsecond, nil) // opens batches
		} else {
			s.health.Observe(disk, time.Minute, nil) // the gate declines every hedge to it
		}
	}
	// lo is the EWMA that the warm-up and two reads of slow/2 leave.
	want, err := NewBreakers(BreakerConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []time.Duration{time.Microsecond, slow / 2, slow / 2} {
		want.Observe(0, x, nil)
	}
	lo, _, _, _ := trackerState(want, 0)
	fast := exec.NewFileReader(f)
	r := s.newServedReader(fast)
	sl := &r.slots[d]
	var asks atomic.Int64
	for i, b := range buckets {
		if i == 1 {
			r.inner = slowDiskReader{inner: fast, disk: d, delay: slow}
		}
		if _, err := r.ReadBucket(context.Background(), d, b); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			if sl.batch != 1 {
				t.Fatalf("first read left %d reads in the batch, want 1", sl.batch)
			}
			br := sl.race
			gate := br.racer.Gate
			br.racer.Gate = func(primary, backup int) bool {
				asks.Add(1)
				return gate(primary, backup)
			}
			defer func() { br.racer.Gate = br.worth }()
		case 1:
			r.inner = fast
			if asks.Load() != 1 {
				t.Fatalf("the gate was asked %d times of the slow read, want once", asks.Load())
			}
			// The batch spans more than foldSpan, so closing it folds it.
			ewma, reads, _, _ := trackerState(s.health, d)
			if sl.batch != 0 || sl.chain != 0 || sl.run.n != 0 || reads != 3 || ewma < lo {
				t.Fatalf("after the read came due: %d reads in the batch, chain %d, %d reads pending, %d booked, EWMA %v; "+
					"want the batch closed, a fresh chain, and both reads booked at their mean, so an EWMA of at least %v",
					sl.batch, sl.chain, sl.run.n, reads, time.Duration(ewma), time.Duration(lo))
			}
		}
	}
	if got := asks.Load(); got != 1 {
		t.Errorf("the gate was asked %d times, want once: only the slow read came due", got)
	}
	if st := s.Stats(); st.HedgesIssued != 0 {
		t.Errorf("%d hedges issued, want none: the gate declined", st.HedgesIssued)
	}
	r.EndRun(d)
}
