package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/grid"
	"decluster/internal/hedge"
	"decluster/internal/obs"
	"decluster/internal/replica"
)

// The tests of the run clock: over a reader that never waits, a disk's
// run is timed once, and each of its reads is booked as the run's mean
// (see servedReader). The twins here of TestRunFoldBooks* read through a
// cutReader that declares its reads never wait, and also bound the clock
// reads.

// countClock routes s's stamps through a clock that counts its reads.
func countClock(s *Scheduler) *atomic.Int64 {
	var reads atomic.Int64
	s.health.now = func() int64 {
		reads.Add(1)
		return hedge.Now()
	}
	return &reads
}

// waitlessCut is a cutReader that declares its reads never wait, so that
// a scheduler over it times each disk's run once, and that notes which
// disks it read.
type waitlessCut struct {
	*cutReader
	mu    sync.Mutex
	disks map[int]bool
}

func newWaitlessCut(cr *cutReader) *waitlessCut {
	return &waitlessCut{cutReader: cr, disks: map[int]bool{}}
}

func (r *waitlessCut) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	r.mu.Lock()
	r.disks[disk] = true
	r.mu.Unlock()
	return r.cutReader.ReadBucket(ctx, disk, bucket)
}

func (*waitlessCut) NeverWaits() bool { return true }

// runs returns how many disks were read since its last call: the runs
// of the queries in between, when each query runs alone.
func (r *waitlessCut) runs() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(len(r.disks))
	clear(r.disks)
	return n
}

// Every run is booked before its query returns: after each fault-free
// hedged search the tracker has booked exactly the clean reads served,
// and the clock was read at most twice per run.
func TestRunFoldBatchedBooksEveryReadBeforeReturn(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cr := &cutReader{inner: exec.NewFileReader(f), after: math.MaxInt64}
	wr := newWaitlessCut(cr)
	s, err := New(f, WithBucketReader(wr), WithFailover(rep), WithHedging(HedgeConfig{After: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	clock := countClock(s)
	g := f.Grid()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		x, y := rng.Intn(g.Dim(0)), rng.Intn(g.Dim(1))
		q := g.MustRect(grid.Coord{x / 2, y / 2}, grid.Coord{x, y})
		if i == 0 {
			q = g.FullRect()
		}
		clock0 := clock.Load()
		res, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		if reads, _ := bookedReads(s); reads != uint64(cr.clean.Load()) {
			t.Fatalf("after search %d (%v): %d reads booked, %d clean reads served", i, q, reads, cr.clean.Load())
		}
		if n, runs := clock.Load()-clock0, wr.runs(); n > 2*runs {
			t.Fatalf("search %d (%v): %d clock reads for %d runs, want at most 2 per run", i, q, n, runs)
		}
	}
	if st := s.Stats(); st.HedgesIssued != 0 {
		t.Fatalf("%d hedges: want none", st.HedgesIssued)
	}
}

// A query cut short — cancelled mid-run, or failed on one disk after k
// clean reads there — still books every observable read it made before
// it returns: the clean reads pending in every run, and the failure; and
// the clock was read at most twice per run.
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
		wr := newWaitlessCut(cr)
		s, err := New(f, WithBucketReader(wr), WithFailover(rep), WithHedging(HedgeConfig{After: time.Hour}))
		if err != nil {
			t.Fatal(err)
		}
		clock := countClock(s)
		reads0, clean0 := warm(t, s, cr)
		clock0 := clock.Load()
		wr.runs() // forgets the warm-up's
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
		if n, runs := clock.Load()-clock0, wr.runs(); n > 2*runs {
			t.Fatalf("%d clock reads for %d runs, want at most 2 per run", n, runs)
		}
	})

	t.Run("failed", func(t *testing.T) {
		const disk, k = 2, 9
		broken := errors.New("disk gone")
		cr := &cutReader{inner: exec.NewFileReader(f), after: math.MaxInt64, fail: broken, failDisk: disk}
		wr := newWaitlessCut(cr)
		s, err := New(f, WithBucketReader(wr))
		if err != nil {
			t.Fatal(err)
		}
		clock := countClock(s)
		reads0, clean0 := warm(t, s, cr)
		disk0 := s.HealthSnapshot()[disk].Reads
		clock0 := clock.Load()
		wr.runs() // forgets the warm-up's
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
		if n, runs := clock.Load()-clock0, wr.runs(); n > 2*runs {
			t.Fatalf("%d clock reads for %d runs, want at most 2 per run", n, runs)
		}
	})
}

// A clean run of n reads over a reader that never waits reads the clock
// exactly twice — its first stamp and EndRun's — and books each read as
// the run's mean, into the tracker and, when one is attached, the leg
// histogram. So does a cold disk, a slow one, and one under a latency
// histogram.
func TestRunFoldBatchedClock(t *testing.T) {
	const (
		n    = 40
		step = 1600 // the fake clock's tick per read of it, ns: a multiple of n
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
	brk := BreakerConfig{Cooldown: time.Hour}
	for _, tc := range []struct {
		name string
		warm time.Duration // the disk's EWMA before the run, 0 for cold
		sink *obs.Sink
	}{
		{name: "warm", warm: time.Microsecond},
		{name: "cold"},
		{name: "slow", warm: time.Minute},
		{name: "observed", warm: time.Microsecond, sink: obs.NewSink()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithBreaker(brk)}
			if tc.sink != nil {
				opts = append(opts, WithObserver(tc.sink))
			}
			s, err := New(f, opts...)
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

			const mean = time.Duration(step / n)
			for i := 0; i < n; i++ {
				want.Observe(0, mean, nil)
			}
			if reads != 2 {
				t.Errorf("%d clock reads for %d reads, want 2: the first stamp and EndRun's", reads, n)
			}
			ge, gr, _, _ := trackerState(s.health, d)
			we, wr, _, _ := trackerState(want, 0)
			if math.Abs(ge-we) > 1e-9*we {
				t.Errorf("EWMA %vns, want %vns: each read booked as the run's mean", ge, we)
			}
			if gr != wr {
				t.Errorf("%d reads booked, want %d", gr, wr)
			}
			if tc.sink != nil {
				h := tc.sink.Registry().Histogram("serve.read.leg.latency")
				if h.Count() != n || h.Sum() != n*mean || h.Min() != mean || h.Max() != mean {
					t.Errorf("leg histogram count %d, sum %v, min %v, max %v; want %d samples of %v",
						h.Count(), h.Sum(), h.Min(), h.Max(), n, mean)
				}
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
