package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/replica"
)

// hedgedSearchBudget bounds the objects one hedged Search may allocate
// whatever its size, on two Ps: the query's own contexts, its reader and
// the reader's per-disk slots (one allocation), the pass-through wrapper
// that makes its reads ones that may wait, and one leg context per
// pooled Racer the query draws — a disk worker holds one for its run,
// and over in-memory reads about one worker per P runs at a time.
// Measured 10 for the 6×6 rect and for the 48×48 (9 when the default
// reader's reads were still raced, with no wrapper; 8 before the stamp
// chain); doubled, because how many Racers a query draws depends on how
// its sixteen workers were scheduled.
const hedgedSearchBudget = 16

// searchAllocs returns the objects one Search allocates on the canonical
// fixture (64×64 HCAM over 16 disks, 50k records, failover to the
// offset-8 replica, a 1 ms hedge, a deep admission queue, plus opts), for
// a 6×6 rect of 36 bucket reads and for a 48×48 of 2,304, on two Ps.
func searchAllocs(t *testing.T, opts ...Option) (nSmall, nLarge float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the Racer pool is per P
	g := grid.MustNew(64, 64)
	m, err := alloc.NewHCAM(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := gridfile.New(gridfile.Config{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(datagen.Uniform{K: 2, Seed: 19}.Generate(50000)); err != nil {
		t.Fatal(err)
	}
	rep, err := replica.NewOffset(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(f, append([]Option{WithFailover(rep), WithHedging(HedgeConfig{After: time.Millisecond}),
		WithAdmission(AdmissionConfig{MaxQueue: 1024})}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	search := func(q grid.Rect) func() {
		return func() {
			res, err := s.Search(ctx, q)
			if err != nil || len(res.Records) == 0 {
				t.Fatalf("search %v: %v", q, err)
			}
			res.Release()
		}
	}
	large := search(g.MustRect(grid.Coord{8, 8}, grid.Coord{55, 55}))
	small := search(g.MustRect(grid.Coord{29, 29}, grid.Coord{34, 34}))
	for i := 0; i < 8; i++ { // warm the pools
		large()
		small()
	}
	nLarge, nSmall = testing.AllocsPerRun(50, large), testing.AllocsPerRun(50, small)
	if st := s.Stats(); st.Completed == 0 || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
	return nSmall, nLarge
}

// racedReads makes every bucket read of a Search a timed race: a
// pass-through wrapper declares nothing, so the scheduler must assume
// the reads under it may wait.
var racedReads = WithReadWrapper(func(inner exec.BucketReader) exec.BucketReader { return mayWaitReader{inner} })

// TestSchedulerHedgedSearchZeroAllocsPerRead is the hedged read's
// allocation gate, one layer above hedge's own: on the canonical fixture
// under a pass-through wrapper, every bucket read of a Search is a timed
// race with a backup present, and a query of 2,304 reads may allocate at
// most 16 objects more than one of 36.
func TestSchedulerHedgedSearchZeroAllocsPerRead(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	nSmall, nLarge := searchAllocs(t, racedReads)
	t.Logf("hedged Search: %.0f allocs for the 6×6 rect, %.0f for the 48×48", nSmall, nLarge)
	if nLarge-nSmall > 16 {
		t.Errorf("hedged Search allocates %.0f objects for 2,304 reads against %.0f for 36: the count grows with the reads", nLarge, nSmall)
	}
	if nSmall > hedgedSearchBudget {
		t.Errorf("hedged Search allocates %.0f objects for the 6×6 rect, budget %d", nSmall, hedgedSearchBudget)
	}
}

// TestSchedulerWaitlessSearchZeroAllocsPerRead is the same gate on the
// default grid-file reader, whose reads never wait and so are not
// raced: a Search allocates as many objects for 2,304 reads as for 36,
// and no more than the raced Search of the same rect.
func TestSchedulerWaitlessSearchZeroAllocsPerRead(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	nSmall, nLarge := searchAllocs(t)
	rSmall, rLarge := searchAllocs(t, racedReads)
	t.Logf("unraced Search: %.0f allocs for the 6×6 rect, %.0f for the 48×48 (raced: %.0f, %.0f)", nSmall, nLarge, rSmall, rLarge)
	if nLarge > nSmall {
		t.Errorf("unraced Search allocates %.0f objects for 2,304 reads against %.0f for 36: the count grows with the reads", nLarge, nSmall)
	}
	if nSmall > rSmall || nLarge > rLarge {
		t.Errorf("unraced Search allocates %.0f/%.0f objects for the 6×6/48×48 rect, more than the raced %.0f/%.0f", nSmall, nLarge, rSmall, rLarge)
	}
}
