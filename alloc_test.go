package decluster_test

import (
	"context"
	"testing"

	"decluster"
	"decluster/internal/alloc"
	"decluster/internal/grid"
)

// newAllocFixture builds the small fixture the allocation-budget tests
// share: a 32×32 grid over 8 disks with a few thousand records.
func newAllocFixture(t testing.TB) *decluster.GridFile {
	t.Helper()
	g := grid.MustNew(32, 32)
	m, err := alloc.NewHCAM(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decluster.NewGridFile(decluster.GridFileConfig{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(decluster.UniformRecords{K: 2, Seed: 7}.Generate(4000)); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRangeSearchZeroAllocs is the hot-path allocation budget: a full
// RangeSearch — admission-free executor path with a nil obs sink — must
// not allocate once its pools are warm, provided the caller recycles
// results with Release. This is the machine-independent half of the PR
// 10 bar (the ns/op half is the exec.rangesearch ladder rung of bench/,
// compared across commits with `declusterbench compare`); CI runs it on
// every push, so a regression cannot land silently.
func TestRangeSearchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	f := newAllocFixture(t)
	e, err := decluster.NewExecutor(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := f.Grid().MustRect(decluster.Coord{4, 4}, decluster.Coord{27, 27})

	query := func() {
		res, err := e.RangeSearch(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) == 0 {
			t.Fatal("no records")
		}
		res.Release()
	}
	// Warm every pool: query state, parked disk workers, the result
	// buffers, and the records backing array.
	for i := 0; i < 8; i++ {
		query()
	}
	if avg := testing.AllocsPerRun(100, query); avg > 0 {
		t.Fatalf("RangeSearch allocates %.2f times per query; the hot-path budget is 0", avg)
	}
}

// TestRangeSearchZeroAllocsParallelLimit covers the semaphore-limited
// variant of the same path — fewer permitted workers than active disks
// exercises the permit channel, which must also be allocation-free.
func TestRangeSearchZeroAllocsParallelLimit(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	f := newAllocFixture(t)
	e, err := decluster.NewExecutor(f, decluster.WithMaxParallel(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := f.Grid().MustRect(decluster.Coord{0, 0}, decluster.Coord{31, 31})
	query := func() {
		res, err := e.RangeSearch(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	for i := 0; i < 8; i++ {
		query()
	}
	if avg := testing.AllocsPerRun(100, query); avg > 0 {
		t.Fatalf("limited RangeSearch allocates %.2f times per query; budget is 0", avg)
	}
}
