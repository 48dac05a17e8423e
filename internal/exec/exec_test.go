package exec

import (
	"context"
	"math"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/partition"
)

func newLoadedFile(t *testing.T, disks, records int) *gridfile.File {
	t.Helper()
	g := grid.MustNew(16, 16)
	m, err := alloc.NewHCAM(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	f, err := gridfile.New(gridfile.Config{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	recs := datagen.Uniform{K: 2, Seed: 5}.Generate(records)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil file accepted")
	}
	f := newLoadedFile(t, 4, 100)
	if _, err := New(f, WithMaxParallel(-1)); err == nil {
		t.Error("negative parallelism accepted")
	}
}

func TestRangeSearchMatchesSequential(t *testing.T) {
	f := newLoadedFile(t, 4, 2000)
	e, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Grid()
	r := g.MustRect(grid.Coord{2, 3}, grid.Coord{9, 12})

	par, err := e.RangeSearch(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := f.CellRangeSearch(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Records) != len(seq.Records) {
		t.Fatalf("parallel %d records, sequential %d", len(par.Records), len(seq.Records))
	}
	// Both orders are (bucket, insertion): must match element-wise.
	for i := range par.Records {
		if par.Records[i].ID != seq.Records[i].ID {
			t.Fatalf("record %d: parallel ID %d, sequential ID %d", i, par.Records[i].ID, seq.Records[i].ID)
		}
	}
	// One count per bucket of r, row-major, empty buckets included.
	buckets := g.AppendRect(nil, r)
	if len(par.RecordsPerBucket) != len(buckets) {
		t.Fatalf("%d per-bucket counts for %d buckets", len(par.RecordsPerBucket), len(buckets))
	}
	for i, b := range buckets {
		if par.RecordsPerBucket[i] != f.BucketLen(b) {
			t.Fatalf("bucket %d: counted %d records, the file holds %d", b, par.RecordsPerBucket[i], f.BucketLen(b))
		}
	}
}

func TestRangeSearchDeterministicAcrossRuns(t *testing.T) {
	f := newLoadedFile(t, 8, 3000)
	e, _ := New(f)
	r := f.Grid().FullRect()
	first, err := e.RangeSearch(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := e.RangeSearch(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Records) != len(first.Records) {
			t.Fatal("nondeterministic record count")
		}
		for i := range again.Records {
			if again.Records[i].ID != first.Records[i].ID {
				t.Fatalf("run %d: order diverged at %d", run, i)
			}
		}
	}
}

func TestBucketsPerDiskAccounting(t *testing.T) {
	f := newLoadedFile(t, 4, 2000)
	e, _ := New(f)
	r := f.Grid().FullRect()
	res, err := e.RangeSearch(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := f.CellRangeSearch(r)
	total := 0
	for _, n := range res.BucketsPerDisk {
		total += n
	}
	if total != seq.Trace.BucketsTouched() {
		t.Fatalf("parallel read %d buckets, sequential %d", total, seq.Trace.BucketsTouched())
	}
}

func TestRangeSearchInvalidRect(t *testing.T) {
	f := newLoadedFile(t, 4, 10)
	e, _ := New(f)
	bad := grid.Rect{Lo: grid.Coord{0, 0}, Hi: grid.Coord{16, 16}}
	if _, err := e.RangeSearch(context.Background(), bad); err == nil {
		t.Error("invalid rect accepted")
	}
}

func TestCancellation(t *testing.T) {
	f := newLoadedFile(t, 8, 5000)
	e, _ := New(f)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before start
	if _, err := e.RangeSearch(ctx, f.Grid().FullRect()); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestMaxParallelRespected(t *testing.T) {
	f := newLoadedFile(t, 8, 1000)
	e, err := New(f, WithMaxParallel(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RangeSearch(context.Background(), f.Grid().FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1000 {
		t.Fatalf("got %d records, want 1000", len(res.Records))
	}
}

func TestRangeSearchValuesFilters(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	e, _ := New(f)
	res, err := e.RangeSearchValues(context.Background(), []float64{0.25, 0.25}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records in a quarter-space query over 3000 uniform records")
	}
	for _, rec := range res.Records {
		for i, v := range rec.Values {
			if v < 0.25 || v > 0.5 {
				t.Fatalf("record %d attr %d = %v outside bounds", rec.ID, i, v)
			}
		}
	}
	// Agrees with the sequential value search.
	seq, err := f.RangeSearch([]float64{0.25, 0.25}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(seq.Records) {
		t.Fatalf("parallel %d records, sequential %d", len(res.Records), len(seq.Records))
	}
	// The per-bucket counts follow the filter: each counts the records of
	// its bucket that passed.
	r, err := f.ValueRect([]float64{0.25, 0.25}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for i, b := range f.Grid().AppendRect(nil, r) {
		for _, rec := range res.Records[at : at+res.RecordsPerBucket[i]] {
			if got, _ := f.BucketOf(rec.Values); got != b {
				t.Fatalf("record %d counted in bucket %d, lives in %d", rec.ID, b, got)
			}
		}
		at += res.RecordsPerBucket[i]
	}
	if at != len(res.Records) {
		t.Fatalf("per-bucket counts sum to %d, %d records passed", at, len(res.Records))
	}
}

// On a file with equi-depth boundaries a value is not in cell ⌊v·d⌋: the
// concurrent value search must map bounds with the file's own geometry,
// or it reads the wrong buckets and silently drops records. Brute force
// over the inserted records is the oracle.
func TestRangeSearchValuesHonoursBoundaries(t *testing.T) {
	g := grid.MustNew(4, 4)
	m, err := alloc.NewHCAM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := datagen.Zipf{K: 2, Seed: 1, S: 2}.Generate(2000)
	sample := make([][]float64, len(recs))
	for i, r := range recs {
		sample[i] = r.Values
	}
	bounds, err := partition.EquiDepth(sample, g.Dims())
	if err != nil {
		t.Fatal(err)
	}
	f, err := gridfile.New(gridfile.Config{Method: m, Boundaries: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	e, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{0.001, 0.02}, {0, 0.1}, {0.05, 0.5}, {0.3, 0.99}} {
		lo, hi := []float64{q[0], q[0]}, []float64{q[1], q[1]}
		want := map[int]bool{}
		for _, r := range recs {
			if r.Values[0] >= q[0] && r.Values[0] <= q[1] && r.Values[1] >= q[0] && r.Values[1] <= q[1] {
				want[r.ID] = true
			}
		}
		res, err := e.RangeSearchValues(context.Background(), lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != len(want) {
			t.Fatalf("[%v, %v]²: RangeSearchValues returned %d records, brute force %d", q[0], q[1], len(res.Records), len(want))
		}
		for _, r := range res.Records {
			if !want[r.ID] {
				t.Fatalf("[%v, %v]²: record %d returned, brute force excludes it", q[0], q[1], r.ID)
			}
		}
	}
}

func TestRangeSearchValuesValidation(t *testing.T) {
	f := newLoadedFile(t, 4, 10)
	e, _ := New(f)
	ctx := context.Background()
	if _, err := e.RangeSearchValues(ctx, []float64{0.5}, []float64{0.9}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := e.RangeSearchValues(ctx, []float64{0.9, 0}, []float64{0.1, 0.5}); err == nil {
		t.Error("inverted bounds accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < 4; pos++ { // lo[0], lo[1], hi[0], hi[1]
			bounds := []float64{0.1, 0.1, 0.5, 0.5}
			bounds[pos] = v
			if _, err := e.RangeSearchValues(ctx, bounds[:2], bounds[2:]); err == nil {
				t.Errorf("bound %v accepted at position %d", v, pos)
			}
		}
	}
}
