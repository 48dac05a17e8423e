package dyngrid

import (
	"math"
	"testing"

	"decluster/internal/datagen"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{K: 0, Disks: 2}); err == nil {
		t.Error("zero attributes accepted")
	}
	if _, err := New(Config{K: 2, Disks: 0}); err == nil {
		t.Error("zero disks accepted")
	}
	if _, err := New(Config{K: 2, Disks: 2, Capacity: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
	f, err := New(Config{K: 2, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.K() != 2 || f.Disks() != 2 || f.NumBuckets() != 1 || f.Len() != 0 {
		t.Error("fresh file state wrong")
	}
}

func TestInsertValidation(t *testing.T) {
	f, _ := New(Config{K: 2, Disks: 2})
	if err := f.Insert(datagen.Record{Values: []float64{0.5}}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := f.Insert(datagen.Record{Values: []float64{1.0, 0.5}}); err == nil {
		t.Error("out-of-range value accepted")
	}
	// NaN compares false with everything, so a range check written as
	// "v < 0 || v >= 1" lets it through — and a stored NaN then matches
	// every range search that reads its bucket.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		for pos := 0; pos < 2; pos++ {
			values := []float64{0.5, 0.5}
			values[pos] = v
			if err := f.Insert(datagen.Record{Values: values}); err == nil {
				t.Errorf("value %v accepted on attribute %d", v, pos)
			}
		}
	}
	if f.Len() != 0 {
		t.Error("failed insert counted")
	}
}

func TestGrowsUnderLoad(t *testing.T) {
	f, _ := New(Config{K: 2, Disks: 4, Capacity: 8})
	recs := datagen.Uniform{K: 2, Seed: 3}.Generate(2000)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2000 {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.NumBuckets() < 2000/8 {
		t.Fatalf("only %d buckets for 2000 records at capacity 8", f.NumBuckets())
	}
	if f.Splits() == 0 || f.DirectoryDoublings() == 0 {
		t.Fatal("no structural growth recorded")
	}
	dims := f.Dims()
	if dims[0] < 2 || dims[1] < 2 {
		t.Fatalf("directory did not grow: dims %v", dims)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}

func TestInvariantsThroughoutGrowth(t *testing.T) {
	f, _ := New(Config{K: 2, Disks: 3, Capacity: 4})
	recs := datagen.Clustered{K: 2, Seed: 9, Clusters: 3, Sigma: 0.05}.Generate(600)
	for i, r := range recs {
		if err := f.Insert(r); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptsToSkew(t *testing.T) {
	// A Zipf-skewed axis must receive more split points near the hot
	// region (low values) than the cold half.
	f, _ := New(Config{K: 2, Disks: 4, Capacity: 8})
	recs := datagen.Zipf{K: 2, Seed: 5, S: 2.0, Buckets: 64}.Generate(3000)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	scales := f.Scales(0)
	low, high := 0, 0
	for _, s := range scales {
		if s < 0.5 {
			low++
		} else {
			high++
		}
	}
	if low <= high {
		t.Fatalf("skewed data: %d split points below 0.5, %d above; scales did not adapt", low, high)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSearchExact(t *testing.T) {
	f, _ := New(Config{K: 2, Disks: 4, Capacity: 8})
	recs := datagen.Uniform{K: 2, Seed: 11}.Generate(1500)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	lo := []float64{0.2, 0.3}
	hi := []float64{0.6, 0.7}
	rs, err := f.RangeSearch(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against a brute-force scan.
	want := 0
	for _, r := range recs {
		if r.Values[0] >= lo[0] && r.Values[0] <= hi[0] && r.Values[1] >= lo[1] && r.Values[1] <= hi[1] {
			want++
		}
	}
	if len(rs.Records) != want {
		t.Fatalf("range search returned %d records, brute force %d", len(rs.Records), want)
	}
	for _, rec := range rs.Records {
		if rec.Values[0] < lo[0] || rec.Values[0] > hi[0] || rec.Values[1] < lo[1] || rec.Values[1] > hi[1] {
			t.Fatalf("record %v outside bounds", rec.Values)
		}
	}
	if rs.Trace.TotalPages() == 0 {
		t.Fatal("empty trace for non-empty result")
	}
}

func TestRangeSearchValidation(t *testing.T) {
	f, _ := New(Config{K: 2, Disks: 2})
	if _, err := f.RangeSearch([]float64{0.5}, []float64{0.9}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := f.RangeSearch([]float64{0.9, 0}, []float64{0.1, 0.9}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := f.RangeSearch([]float64{0, 0}, []float64{1.0, 0.9}); err == nil {
		t.Error("bound ≥ 1 accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := f.RangeSearch([]float64{v, 0}, []float64{0.9, 0.9}); err == nil {
			t.Errorf("low bound %v accepted", v)
		}
		if _, err := f.RangeSearch([]float64{0, 0}, []float64{0.9, v}); err == nil {
			t.Errorf("high bound %v accepted", v)
		}
	}
}

// countingObserver tallies notifications; the alloc gate attaches it to
// show the notification path itself allocates nothing.
type countingObserver struct{ moved, layers int }

func (o *countingObserver) CellMoved([]int, int, int) { o.moved++ }
func (o *countingObserver) LayerInserted(int, int)    { o.layers++ }

// TestInsertZeroAllocs gates the file's hot path: every bucket is born
// with the capacity+1 record slice it can fill before splitting, and
// locating a record's cell needs no scratch, so an Insert that does not
// split allocates nothing — observer attached or not.
func TestInsertZeroAllocs(t *testing.T) {
	for _, observed := range []bool{false, true} {
		f, err := New(Config{K: 2, Disks: 4, Capacity: 400})
		if err != nil {
			t.Fatal(err)
		}
		obs := &countingObserver{}
		if observed {
			f.SetObserver(obs)
		}
		recs := datagen.Uniform{K: 2, Seed: 5}.Generate(1200)
		if err := f.InsertAll(recs[:1000]); err != nil {
			t.Fatal(err)
		}
		splits := f.Splits()
		if splits == 0 || (observed && obs.layers == 0) {
			t.Fatalf("observed=%v: fixture never split (%d splits, %d doublings seen)", observed, splits, obs.layers)
		}
		next := 1000
		avg := testing.AllocsPerRun(100, func() {
			if err := f.Insert(recs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if f.Splits() != splits {
			t.Fatalf("observed=%v: a measured insert split a bucket; the fixture must not", observed)
		}
		if avg > 0 {
			t.Errorf("observed=%v: non-splitting Insert allocates %.1f allocs/op, want 0", observed, avg)
		}
	}
}

func TestDuplicateValuesOverflowGracefully(t *testing.T) {
	// Identical records cannot be separated by any scale: the bucket
	// must be allowed to overflow rather than loop forever.
	f, _ := New(Config{K: 2, Disks: 2, Capacity: 4})
	for i := 0; i < 100; i++ {
		if err := f.Insert(datagen.Record{ID: i, Values: []float64{0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != 100 {
		t.Fatalf("Len = %d", f.Len())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rs, err := f.RangeSearch([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Records) != 100 {
		t.Fatalf("point search returned %d records, want 100", len(rs.Records))
	}
}

func TestRoundRobinBalance(t *testing.T) {
	f, _ := New(Config{K: 2, Disks: 4, Capacity: 8})
	recs := datagen.Uniform{K: 2, Seed: 21}.Generate(4000)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	// Count buckets per disk via a full-scan trace.
	counts := make([]int, 4)
	rs, err := f.RangeSearch([]float64{0, 0}, []float64{0.999999, 0.999999})
	if err != nil {
		t.Fatal(err)
	}
	for d, as := range rs.Trace.PerDisk {
		counts[d] = len(as)
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 {
		t.Fatalf("a disk holds no buckets: %v", counts)
	}
	if float64(max) > 2.5*float64(min) {
		t.Fatalf("round-robin severely unbalanced: %v", counts)
	}
}

func TestCustomAllocator(t *testing.T) {
	// An allocator pinning everything to disk 1.
	pin := func(_, _ []float64, disks int) int { return 1 % disks }
	f, _ := New(Config{K: 2, Disks: 4, Capacity: 8, Allocate: pin})
	recs := datagen.Uniform{K: 2, Seed: 31}.Generate(500)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	rs, err := f.RangeSearch([]float64{0, 0}, []float64{0.999999, 0.999999})
	if err != nil {
		t.Fatal(err)
	}
	for d, as := range rs.Trace.PerDisk {
		if d != 1 && len(as) > 0 {
			t.Fatalf("disk %d has accesses under pinning allocator", d)
		}
	}
}

func TestScalesAccessorCopies(t *testing.T) {
	f, _ := New(Config{K: 2, Disks: 2, Capacity: 2})
	recs := datagen.Uniform{K: 2, Seed: 41}.Generate(50)
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	s := f.Scales(0)
	if len(s) == 0 {
		t.Skip("no scales yet")
	}
	s[0] = -1
	if f.Scales(0)[0] == -1 {
		t.Fatal("Scales exposes internal state")
	}
}

// TestSplitAllocsOnlyTheNewBucket gates the structural path: a split
// allocates what the new bucket keeps — the bucket, its region's
// coordinates, its record slice — and a doubling the new directory;
// everything transient lives in the file's scratch. The slack covers
// the amortised growth of the bucket list and the scales.
func TestSplitAllocsOnlyTheNewBucket(t *testing.T) {
	recs := datagen.Uniform{K: 2, Seed: 5}.Generate(20000)
	var f *File
	avg := testing.AllocsPerRun(1, func() {
		f, _ = New(Config{K: 2, Disks: 4, Capacity: 32})
		f.SetObserver(&countingObserver{})
		if err := f.InsertAll(recs); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 3*f.Splits() + f.DirectoryDoublings() + 64; int(avg) > limit {
		t.Errorf("%d inserts allocated %.0f objects over %d splits and %d doublings, want ≤ %d",
			len(recs), avg, f.Splits(), f.DirectoryDoublings(), limit)
	}
}
