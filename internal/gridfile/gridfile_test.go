package gridfile

import (
	"math"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/grid"
)

func newTestFile(t *testing.T, dims []int, disks, capacity int) *File {
	t.Helper()
	g := grid.MustNew(dims...)
	m, err := alloc.NewDM(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Method: m, PageCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil method accepted")
	}
	g := grid.MustNew(4, 4)
	m, _ := alloc.NewDM(g, 2)
	if _, err := New(Config{Method: m, PageCapacity: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
	f, err := New(Config{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	if f.PageCapacity() != DefaultPageCapacity {
		t.Errorf("default capacity = %d", f.PageCapacity())
	}
	if f.Disks() != 2 || f.Grid() != g || f.Method() != m {
		t.Error("accessors wrong")
	}
}

func TestInsertAndBucketPlacement(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	rec := datagen.Record{ID: 0, Values: []float64{0.3, 0.8}}
	if err := f.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
	// 0.3·4 = 1.2 → partition 1; 0.8·4 = 3.2 → partition 3.
	b := f.Grid().Linearize(grid.Coord{1, 3})
	if f.BucketLen(b) != 1 {
		t.Fatalf("record not in expected bucket; bucket holds %d", f.BucketLen(b))
	}
}

// nonFiniteRows places NaN, +Inf and -Inf at every position of an
// otherwise valid k-attribute vector. NaN compares false with
// everything, so a range check written "v < 0 || v >= 1" lets it
// through.
func nonFiniteRows(k int) [][]float64 {
	var rows [][]float64
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < k; pos++ {
			row := make([]float64, k)
			for i := range row {
				row[i] = 0.5
			}
			row[pos] = v
			rows = append(rows, row)
		}
	}
	return rows
}

func TestInsertRejectsBadRecord(t *testing.T) {
	f := newTestFile(t, []int{8, 8}, 2, 2)
	if err := f.Insert(datagen.Record{Values: []float64{0.5}}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := f.Insert(datagen.Record{Values: []float64{1.5, 0.5}}); err == nil {
		t.Error("out-of-range value accepted")
	}
	for _, row := range nonFiniteRows(2) {
		if err := f.Insert(datagen.Record{Values: row}); err == nil {
			t.Errorf("value vector %v accepted", row)
		}
	}
	if f.Len() != 0 {
		t.Error("failed insert counted")
	}
}

func TestInsertAllStopsAtError(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	recs := []datagen.Record{
		{ID: 0, Values: []float64{0.1, 0.1}},
		{ID: 1, Values: []float64{2.0, 0.1}},
		{ID: 2, Values: []float64{0.2, 0.2}},
	}
	if err := f.InsertAll(recs); err == nil {
		t.Fatal("bad batch accepted")
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d after failed batch, want 1", f.Len())
	}
}

func TestBucketPages(t *testing.T) {
	f := newTestFile(t, []int{2, 2}, 2, 2)
	// 5 records into one bucket with capacity 2 → 3 pages.
	for i := 0; i < 5; i++ {
		if err := f.Insert(datagen.Record{ID: i, Values: []float64{0.1, 0.1}}); err != nil {
			t.Fatal(err)
		}
	}
	b := f.Grid().Linearize(grid.Coord{0, 0})
	if got := f.BucketPages(b); got != 3 {
		t.Fatalf("BucketPages = %d, want 3", got)
	}
	empty := f.Grid().Linearize(grid.Coord{1, 1})
	if got := f.BucketPages(empty); got != 0 {
		t.Fatalf("empty bucket has %d pages", got)
	}
}

func TestCellRangeSearch(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	recs := datagen.Uniform{K: 2, Seed: 3}.Generate(200)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	full := f.Grid().FullRect()
	rs, err := f.CellRangeSearch(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Records) != 200 {
		t.Fatalf("full scan returned %d records, want 200", len(rs.Records))
	}
	if len(rs.Trace.PerDisk) != 2 {
		t.Fatalf("trace has %d disks", len(rs.Trace.PerDisk))
	}
	if rs.Trace.TotalPages() == 0 || rs.Trace.MaxDiskPages() == 0 {
		t.Fatal("trace empty")
	}
	if rs.Trace.MaxDiskPages() > rs.Trace.TotalPages() {
		t.Fatal("max disk pages exceeds total")
	}
}

func TestCellRangeSearchInvalidRect(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	bad := grid.Rect{Lo: grid.Coord{0, 0}, Hi: grid.Coord{4, 4}}
	if _, err := f.CellRangeSearch(bad); err == nil {
		t.Error("out-of-range rect accepted")
	}
	bad2 := grid.Rect{Lo: grid.Coord{0}, Hi: grid.Coord{1}}
	if _, err := f.CellRangeSearch(bad2); err == nil {
		t.Error("wrong-arity rect accepted")
	}
}

func TestCellRangeSkipsEmptyBuckets(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 4, 2)
	// Populate exactly one bucket.
	if err := f.Insert(datagen.Record{Values: []float64{0.1, 0.1}}); err != nil {
		t.Fatal(err)
	}
	rs, err := f.CellRangeSearch(f.Grid().FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Trace.BucketsTouched() != 1 {
		t.Fatalf("touched %d buckets, want 1 (empty skipped)", rs.Trace.BucketsTouched())
	}
}

func TestRangeSearchFiltersExact(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 4)
	recs := []datagen.Record{
		{ID: 0, Values: []float64{0.10, 0.10}}, // inside
		{ID: 1, Values: []float64{0.24, 0.24}}, // inside cell, outside bounds
		{ID: 2, Values: []float64{0.60, 0.60}}, // outside rect
	}
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	rs, err := f.RangeSearch([]float64{0.0, 0.0}, []float64{0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Records) != 1 || rs.Records[0].ID != 0 {
		t.Fatalf("filtered results = %v", rs.Records)
	}
	// The cell rectangle still read bucket (0,0) — one access.
	if rs.Trace.BucketsTouched() != 1 {
		t.Fatalf("touched %d buckets", rs.Trace.BucketsTouched())
	}
}

func TestRangeSearchBoundsValidation(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	if _, err := f.RangeSearch([]float64{0.5, 0.5}, []float64{0.2, 0.9}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := f.RangeSearch([]float64{0.5}, []float64{0.9}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := f.RangeSearch([]float64{-0.1, 0}, []float64{0.5, 0.5}); err == nil {
		t.Error("negative bound accepted")
	}
	if _, err := f.RangeSearch([]float64{0, 0}, []float64{1.0, 0.5}); err == nil {
		t.Error("bound ≥ 1 accepted")
	}
	for _, row := range nonFiniteRows(4) { // lo[0], lo[1], hi[0], hi[1]
		if _, err := f.RangeSearch(row[:2], row[2:]); err == nil {
			t.Errorf("bounds %v..%v accepted", row[:2], row[2:])
		}
	}
}

func TestPartialMatchSearch(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	recs := datagen.Uniform{K: 2, Seed: 9}.Generate(400)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	// Specify attribute 0 ≈ 0.1 → partition 0; attribute 1 free.
	rs, err := f.PartialMatchSearch([]float64{0.1, 0}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Records {
		if r.Values[0] >= 0.25 {
			t.Fatalf("record %v outside specified partition", r.Values)
		}
	}
	// The 1×4 stripe under DM mod 2 alternates disks: both disks used.
	used := 0
	for _, as := range rs.Trace.PerDisk {
		if len(as) > 0 {
			used++
		}
	}
	if used != 2 {
		t.Fatalf("PM stripe used %d disks, want 2", used)
	}
}

func TestPartialMatchValidation(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	if _, err := f.PartialMatchSearch([]float64{0.5}, []bool{true}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := f.PartialMatchSearch([]float64{1.5, 0}, []bool{true, false}); err == nil {
		t.Error("out-of-range specified value accepted")
	}
	for _, row := range nonFiniteRows(2) {
		if _, err := f.PartialMatchSearch(row, []bool{true, true}); err == nil {
			t.Errorf("specified values %v accepted", row)
		}
	}
}

func TestDelete(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	recs := []datagen.Record{
		{ID: 0, Values: []float64{0.1, 0.1}},
		{ID: 1, Values: []float64{0.1, 0.1}},
		{ID: 2, Values: []float64{0.9, 0.9}},
	}
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	ok, err := f.Delete(recs[0])
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d after delete", f.Len())
	}
	// Deleting again finds nothing.
	ok, err = f.Delete(recs[0])
	if err != nil || ok {
		t.Fatalf("second Delete = %v, %v", ok, err)
	}
	// Record 1 still findable.
	rs, _ := f.CellRangeSearch(f.Grid().FullRect())
	ids := map[int]bool{}
	for _, r := range rs.Records {
		ids[r.ID] = true
	}
	if !ids[1] || !ids[2] || ids[0] {
		t.Fatalf("surviving IDs wrong: %v", ids)
	}
	// Bad values rejected.
	if _, err := f.Delete(datagen.Record{ID: 9, Values: []float64{2, 0}}); err == nil {
		t.Error("out-of-range delete accepted")
	}
	for _, row := range nonFiniteRows(2) {
		if _, err := f.Delete(datagen.Record{ID: 1, Values: row}); err == nil {
			t.Errorf("delete of %v accepted", row)
		}
	}
}

func TestStats(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	recs := []datagen.Record{
		{ID: 0, Values: []float64{0.1, 0.1}}, // bucket (0,0), 1 page
		{ID: 1, Values: []float64{0.1, 0.1}},
		{ID: 2, Values: []float64{0.1, 0.1}}, // → 2 pages
		{ID: 3, Values: []float64{0.9, 0.9}}, // bucket (3,3), 1 page
	}
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Records != 4 || s.OccupiedBuckets != 2 || s.TotalPages != 3 {
		t.Fatalf("Stats = %+v", s)
	}
	sum := 0
	for _, p := range s.PagesPerDisk {
		sum += p
	}
	if sum != s.TotalPages {
		t.Fatalf("per-disk pages sum %d != total %d", sum, s.TotalPages)
	}
}

func TestTraceAccountsPagesExactly(t *testing.T) {
	f := newTestFile(t, []int{2, 2}, 2, 1) // capacity 1: pages = records
	recs := datagen.Uniform{K: 2, Seed: 21}.Generate(50)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	rs, err := f.CellRangeSearch(f.Grid().FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Trace.TotalPages() != 50 {
		t.Fatalf("TotalPages = %d, want 50", rs.Trace.TotalPages())
	}
}

// TestBucketOfIsRowMajorCell pins BucketOf to the per-axis rule it
// folds: the bucket number is the row-major index of the cell made of
// each axis's partition, on square, ragged and 3-d grids, and bad
// records draw Insert's errors.
func TestBucketOfIsRowMajorCell(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {16, 3}, {3, 5, 2}} {
		f := newTestFile(t, dims, 2, 2)
		g := f.Grid()
		for _, rec := range (datagen.Uniform{K: len(dims), Seed: 7}).Generate(300) {
			c := make(grid.Coord, len(dims))
			for a, v := range rec.Values {
				c[a] = int(v * float64(dims[a]))
			}
			b, err := f.BucketOf(rec.Values)
			if err != nil || b != g.Linearize(c) {
				t.Fatalf("grid %v: BucketOf(%v) = %d, %v; cell %v is bucket %d", g, rec.Values, b, err, c, g.Linearize(c))
			}
		}
	}
	f := newTestFile(t, []int{4, 4}, 2, 2)
	if _, err := f.BucketOf([]float64{0.5}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := f.BucketOf([]float64{0.5, 1}); err == nil {
		t.Error("out-of-range value accepted")
	}
	for _, row := range nonFiniteRows(2) {
		if _, err := f.BucketOf(row); err == nil {
			t.Errorf("value vector %v accepted", row)
		}
	}
}
