package gridfile

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/grid"
	"decluster/internal/partition"
)

// bucketsEqual fails t unless a and b hold the same records in every
// bucket, storage order included, and agree on Len and Stats.
func bucketsEqual(t *testing.T, what string, a, b *File) {
	t.Helper()
	for k := 0; k < a.Grid().Buckets(); k++ {
		if !reflect.DeepEqual(a.Bucket(k), b.Bucket(k)) {
			t.Fatalf("%s: bucket %d holds %d records unlike the reference's %d, or in another order", what, k, b.BucketLen(k), a.BucketLen(k))
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len = %d, want %d", what, b.Len(), a.Len())
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("%s: Stats = %+v, want %+v", what, b.Stats(), a.Stats())
	}
}

// TestInsertAllMatchesInsert checks the bulk load against per-record
// Insert: one InsertAll of the whole set, the same set split into random
// batches (later batches land in buckets earlier ones filled), and a
// filtered InsertWhere all store every bucket exactly as Insert does,
// storage order included — the cluster's answer order depends on it.
func TestInsertAllMatchesInsert(t *testing.T) {
	cases := []struct {
		name       string
		dims       []int
		n          int
		equiDepths bool
	}{
		{"8x8", []int{8, 8}, 3000, false},
		{"64x64", []int{64, 64}, 20000, false},
		{"3x5x7", []int{3, 5, 7}, 2000, false},
		{"8x8 equi-depth", []int{8, 8}, 3000, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := grid.MustNew(tc.dims...)
			m, err := alloc.NewDM(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			var recs []datagen.Record
			cfg := Config{Method: m, PageCapacity: 4}
			if tc.equiDepths {
				recs = datagen.Zipf{K: len(tc.dims), Seed: 3, S: 1.2, Buckets: g.Buckets()}.Generate(tc.n)
				sample := make([][]float64, len(recs))
				for i, r := range recs {
					sample[i] = r.Values
				}
				if cfg.Boundaries, err = partition.EquiDepth(sample, g.Dims()); err != nil {
					t.Fatal(err)
				}
			} else {
				recs = datagen.Uniform{K: len(tc.dims), Seed: 7}.Generate(tc.n)
			}
			fresh := func() *File {
				f, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}

			ref := fresh()
			for _, r := range recs {
				if err := ref.Insert(r); err != nil {
					t.Fatal(err)
				}
			}

			one := fresh()
			if err := one.InsertAll(recs); err != nil {
				t.Fatal(err)
			}
			bucketsEqual(t, "one InsertAll", ref, one)

			// Batches alternate between sizes that pack (at least one
			// record per sparseLoad buckets) and smaller ones that append.
			batched, rng, intoFilled := fresh(), rand.New(rand.NewSource(11)), 0
			small := g.Buckets()/sparseLoad - 1
			packs, appends := 0, 0
			for lo := 0; lo < len(recs); {
				size := small + 1 + rng.Intn(len(recs)/8)
				if (packs+appends)%2 == 1 {
					size = 1 + rng.Intn(small)
				}
				hi := min(lo+size, len(recs))
				if (hi-lo)*sparseLoad < g.Buckets() {
					appends++
				} else {
					packs++
				}
				for _, r := range recs[lo:hi] {
					if b, _ := batched.BucketOf(r.Values); batched.BucketLen(b) > 0 {
						intoFilled++
					}
				}
				if err := batched.InsertAll(recs[lo:hi]); err != nil {
					t.Fatal(err)
				}
				lo = hi
			}
			if intoFilled == 0 || packs == 0 || appends == 0 {
				t.Fatalf("%d records landed in non-empty buckets, %d batches packed and %d appended; the fixture must exercise every path", intoFilled, packs, appends)
			}
			bucketsEqual(t, "random batches", ref, batched)

			even := func(b int) bool { return b%2 == 0 }
			refEven, where := fresh(), fresh()
			for _, r := range recs {
				if b, _ := refEven.BucketOf(r.Values); even(b) {
					if err := refEven.Insert(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			if i, err := InsertWhere(where, recs, even); err != nil || i != len(recs) {
				t.Fatalf("InsertWhere = %d, %v; want %d, nil", i, err, len(recs))
			}
			bucketsEqual(t, "InsertWhere", refEven, where)
		})
	}
}

// packedFile bulk-loads a 4×4 file so that buckets 4, 5 and 6 share one
// record array, and returns it with bucket 5's number.
func packedFile(t *testing.T) (*File, int) {
	t.Helper()
	f := newTestFile(t, []int{4, 4}, 2, 2)
	var recs []datagen.Record
	for i := 0; i < 12; i++ {
		// Row 1, columns 0..2: buckets 4, 5 and 6, interleaved.
		recs = append(recs, datagen.Record{ID: i, Values: []float64{0.3, 0.05 + 0.25*float64(i%3)}})
	}
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	return f, 5
}

// TestInsertAllKeepsNeighbourViews checks the cap on a packed run: an
// Insert into bucket b after a bulk load reallocates b's run instead of
// writing into the run of b+1 that follows it in the shared array, so
// views of b−1 and b+1 taken before the Insert read the same records
// after it.
func TestInsertAllKeepsNeighbourViews(t *testing.T) {
	f, b := packedFile(t)
	before, after := f.Bucket(b-1), f.Bucket(b+1)
	wantBefore := append([]datagen.Record(nil), before...)
	wantAfter := append([]datagen.Record(nil), after...)
	if len(wantBefore) != 4 || len(wantAfter) != 4 {
		t.Fatalf("fixture: neighbours hold %d and %d records, want 4 each", len(wantBefore), len(wantAfter))
	}
	for i := 0; i < 3; i++ {
		if err := f.Insert(datagen.Record{ID: 100 + i, Values: []float64{0.3, 0.3}}); err != nil {
			t.Fatal(err)
		}
	}
	if f.BucketLen(b) != 7 {
		t.Fatalf("bucket %d holds %d records, want 7", b, f.BucketLen(b))
	}
	for _, c := range []struct {
		name       string
		view, want []datagen.Record
		bucket     int
	}{
		{"b-1", before, wantBefore, b - 1},
		{"b+1", after, wantAfter, b + 1},
	} {
		if !reflect.DeepEqual(c.view, c.want) {
			t.Errorf("view of %s changed under an Insert into bucket %d: %v, want %v", c.name, b, c.view, c.want)
		}
		if !reflect.DeepEqual(f.Bucket(c.bucket), c.want) {
			t.Errorf("bucket %s now holds %v, want %v", c.name, f.Bucket(c.bucket), c.want)
		}
	}
}

// TestInsertAllKeepsOtherBucketViews checks a view of bucket b taken
// before a bulk load that touches other buckets: it reads the same
// records, from the same storage, while the load runs and after it. A
// reader goroutine walks the view during the loads, so under -race the
// test also shows that a load writes no memory of a bucket it does not
// touch — the argument that lets a node ingest a migrated bucket beside
// page reads of the buckets it serves.
func TestInsertAllKeepsOtherBucketViews(t *testing.T) {
	f, b := packedFile(t)
	view := f.Bucket(b)
	want := append([]datagen.Record(nil), view...)

	var others []datagen.Record
	for _, r := range (datagen.Uniform{K: 2, Seed: 4}).Generate(4000) {
		if k, _ := f.BucketOf(r.Values); k != b {
			others = append(others, r)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := f.Bucket(b)
			if len(cur) != len(want) || &cur[0] != &view[0] || !reflect.DeepEqual(cur, want) {
				t.Error("view of an untouched bucket changed during a bulk load")
				return
			}
		}
	}()
	for lo := 0; lo < len(others); lo += 500 {
		if err := f.InsertAll(others[lo:min(lo+500, len(others))]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if !reflect.DeepEqual(view, want) || &f.Bucket(b)[0] != &view[0] {
		t.Fatalf("bucket %d view changed under loads into other buckets", b)
	}
}

// TestInsertAllStopsAtErrorNamesIndex checks InsertAll's error contract
// under the bulk load: the records before the bad one are stored, in
// their buckets, and the error names the bad record's index.
func TestInsertAllStopsAtErrorNamesIndex(t *testing.T) {
	f := newTestFile(t, []int{4, 4}, 2, 2)
	recs := []datagen.Record{
		{ID: 10, Values: []float64{0.1, 0.1}},
		{ID: 11, Values: []float64{0.6, 0.1}},
		{ID: 12, Values: []float64{0.1, 0.15}},
		{ID: 13, Values: []float64{0.5, 1.5}},
		{ID: 14, Values: []float64{0.2, 0.2}},
	}
	err := f.InsertAll(recs)
	if err == nil || !strings.Contains(err.Error(), "record 3:") {
		t.Fatalf("InsertAll error = %v, want one naming record 3", err)
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d after failed batch, want 3", f.Len())
	}
	ref := newTestFile(t, []int{4, 4}, 2, 2)
	for _, r := range recs[:3] {
		if err := ref.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	bucketsEqual(t, "records before the bad one", ref, f)
}

// TestInsertAllAmortisedAllocs gates the bulk load: loading 5k or 50k
// records into an empty 64×64 file makes the same few allocations — one
// bucket index per record, one count per bucket, one shared record
// array — however many buckets the records fill. A load too small to
// pack allocates in proportion to its records, not to the grid: a
// migrated bucket's ingest pays nothing per bucket of a 64×64 file.
func TestInsertAllAmortisedAllocs(t *testing.T) {
	g := grid.MustNew(64, 64)
	m, err := alloc.NewDM(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		recs := datagen.Uniform{K: 2, Seed: 1}.Generate(n)
		const runs = 5
		files := make([]*File, runs+1)
		for i := range files {
			if files[i], err = New(Config{Method: m}); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		avg := testing.AllocsPerRun(runs, func() {
			if err := files[next].InsertAll(recs); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if files[0].Len() != n {
			t.Fatalf("loaded %d records, want %d", files[0].Len(), n)
		}
		return avg
	}
	small, large := allocs(5000), allocs(50000)
	if small != large || large > 3 {
		t.Fatalf("InsertAll allocates %.0f allocs for 5k records and %.0f for 50k, want the same ≤ 3", small, large)
	}

	f, err := New(Config{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	recs := datagen.Uniform{K: 2, Seed: 2}.Generate(2000)
	if err := f.InsertAll(recs[:1]); err != nil {
		t.Fatal(err)
	}
	rest := recs[1:]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range rest {
		if err := f.InsertAll(rest[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// A one-record load appends: a new one-record array for an empty
	// bucket, an amortised doubling for a filled one. 256 B per load is
	// far below the 16 KB a count of the grid's 4,096 buckets would take.
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(rest)); per > 256 {
		t.Fatalf("a one-record InsertAll into a loaded 64×64 file allocates %.0f B, want ≤ 256", per)
	}
	if f.Len() != len(recs) {
		t.Fatalf("loaded %d records, want %d", f.Len(), len(recs))
	}
}

// BenchmarkInsertAllPerBucket loads a 64×64 file one bucket per
// InsertAll, as a cluster node ingests a migration or a rebuild: the
// cost per call must follow the bucket's records, not the grid.
func BenchmarkInsertAllPerBucket(b *testing.B) {
	g := grid.MustNew(64, 64)
	m, err := alloc.NewDM(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	src, err := New(Config{Method: m})
	if err != nil {
		b.Fatal(err)
	}
	if err := src.InsertAll(datagen.Uniform{K: 2, Seed: 1}.Generate(25000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, _ := New(Config{Method: m})
		for k := 0; k < g.Buckets(); k++ {
			if err := f.InsertAll(src.Bucket(k)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
