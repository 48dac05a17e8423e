package decluster_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"decluster"
	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/exec"
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

// TestRangeSearchPagesZeroAllocs is the same budget for the page
// answer a cluster node frames from: handing the slots over as Pages, and
// Release dropping them, allocate nothing once the pools are warm.
func TestRangeSearchPagesZeroAllocs(t *testing.T) {
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
		res, err := e.RangeSearchPages(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pages) != r.Volume() || len(res.Records) != 0 {
			t.Fatalf("%d pages and %d records for %d buckets", len(res.Pages), len(res.Records), r.Volume())
		}
		res.Release()
	}
	for i := 0; i < 8; i++ {
		query()
	}
	if avg := testing.AllocsPerRun(100, query); avg > 0 {
		t.Fatalf("RangeSearchPages allocates %.2f times per query; the hot-path budget is 0", avg)
	}
}

// mayWaitReader passes reads through and declares nothing, so the
// executor treats its reads as ones that may wait and hands runs to
// parked workers.
type mayWaitReader struct {
	inner exec.BucketReader
}

func (r mayWaitReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// TestRangeSearchZeroAllocsParallelLimit covers the variant of the same
// path with fewer runners than active disks — runners that pull more than
// one run each, which must also be allocation-free. The default reader's
// reads never wait and are the caller's alone, so the runners read
// through a pass-through reader that may wait.
func TestRangeSearchZeroAllocsParallelLimit(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	f := newAllocFixture(t)
	e, err := decluster.NewExecutor(f, decluster.WithMaxParallel(3),
		exec.WithBucketReader(mayWaitReader{exec.NewFileReader(f)}))
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

// TestRangeSearchColdAmortisedAllocs is the budget of an answer the
// result pool cannot serve — the caller keeps it, or the GC emptied the
// pool: its records are copied into one backing sized to the answer, so
// a 48×48 rect (~27k records) makes as many allocations as a 6×6 one,
// and the backing holds nothing past the answer.
func TestRangeSearchColdAmortisedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	g := grid.MustNew(64, 64)
	m, err := alloc.NewHCAM(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decluster.NewGridFile(decluster.GridFileConfig{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(decluster.UniformRecords{K: 2, Seed: 7}.Generate(50000)); err != nil {
		t.Fatal(err)
	}
	e, err := decluster.NewExecutor(f)
	if err != nil {
		t.Fatal(err)
	}
	// Results an earlier test released sit in the process-wide pool; two
	// collections empty it, and nothing here releases one. The collector
	// then stays off: after a collection each sync.Pool allocates its
	// per-P array afresh, a count that follows the bytes allocated, not
	// the executor's allocations.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	allocs := func(side int) float64 {
		r := g.MustRect(grid.Coord{8, 8}, grid.Coord{8 + side - 1, 8 + side - 1})
		query := func() {
			res, err := e.RangeSearch(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) == 0 || cap(res.Records) != len(res.Records) {
				t.Fatalf("%dx%d answer: %d records in a backing of %d", side, side, len(res.Records), cap(res.Records))
			}
		}
		query() // warm the query state and any runner
		return testing.AllocsPerRun(20, query)
	}
	small, large := allocs(6), allocs(48)
	if large != small {
		t.Fatalf("an unreleased 48x48 search allocates %.0f times, a 6x6 one %.0f; the answer's size should not matter", large, small)
	}
}
