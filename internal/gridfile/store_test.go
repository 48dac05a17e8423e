package gridfile

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/grid"
)

// storeFixture builds a populated 4×4 grid file over 4 disks with small
// pages (capacity 2) and a two-copy chained holder map.
func storeFixture(t *testing.T) (*File, *Store) {
	t.Helper()
	g, err := grid.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := alloc.Build("DM", g, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Method: m, PageCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.Uniform{K: 2, Seed: 99}
	if err := f.InsertAll(gen.Generate(64)); err != nil {
		t.Fatal(err)
	}
	diskOf := alloc.Table(m)
	s, err := NewStore(f, func(b int) []int {
		d := diskOf[b]
		return []int{d, (d + 1) % 4}
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, s
}

func TestNewStoreValidation(t *testing.T) {
	f, _ := storeFixture(t)
	if _, err := NewStore(f, nil); err == nil {
		t.Error("nil holders accepted")
	}
	if _, err := NewStore(f, func(b int) []int { return nil }); err == nil {
		t.Error("empty holder set accepted")
	}
	if _, err := NewStore(f, func(b int) []int { return []int{9} }); err == nil {
		t.Error("out-of-range holder accepted")
	}
	// Duplicates collapse.
	s, err := NewStore(f, func(b int) []int { return []int{1, 1, 0} })
	if err != nil {
		t.Fatal(err)
	}
	if hs := s.Holders(0); len(hs) != 2 || hs[0] != 0 || hs[1] != 1 {
		t.Errorf("Holders(0) = %v, want [0 1]", hs)
	}
}

func TestStoreReadVerified(t *testing.T) {
	f, s := storeFixture(t)
	if s.Disks() != 4 || s.PageCapacity() != 2 || s.Grid().Buckets() != 16 {
		t.Fatal("store accessors wrong")
	}
	for b := 0; b < s.Grid().Buckets(); b++ {
		for _, d := range s.Holders(b) {
			recs, err := s.ReadVerified(d, b)
			if err != nil {
				t.Fatalf("clean read (%d,%d): %v", d, b, err)
			}
			if len(recs) != f.BucketLen(b) {
				t.Fatalf("copy (%d,%d) has %d records, file has %d", d, b, len(recs), f.BucketLen(b))
			}
			if s.BucketPages(b) != f.BucketPages(b) {
				t.Fatalf("store pages %d != file pages %d for bucket %d", s.BucketPages(b), f.BucketPages(b), b)
			}
		}
	}
	if len(s.VerifyAll()) != 0 {
		t.Error("fresh store has corrupt pages")
	}
	// Non-holder read errors but is not ErrCorrupt.
	b := 0
	var nonHolder int
	hs := s.Holders(b)
	for d := 0; d < 4; d++ {
		if d != hs[0] && d != hs[1] {
			nonHolder = d
			break
		}
	}
	if _, err := s.ReadVerified(nonHolder, b); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("non-holder read = %v, want missing-copy error", err)
	}
}

func TestStoreCorruptAndRepair(t *testing.T) {
	_, s := storeFixture(t)
	// Find a non-empty bucket.
	b := -1
	for i := 0; i < s.Grid().Buckets(); i++ {
		if s.BucketPages(i) > 0 {
			b = i
			break
		}
	}
	if b < 0 {
		t.Fatal("no non-empty bucket")
	}
	d0, d1 := s.Holders(b)[0], s.Holders(b)[1]
	before, err := s.ReadVerified(d0, b)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Corrupt(d0, b, 0) {
		t.Fatal("Corrupt found nothing to rot")
	}
	// Copy-on-write: the slice read before the corruption is untouched.
	if got := pageChecksum(pageSlice(before, s.PageCapacity(), 0)); got != checksums(before, s.PageCapacity())[0] {
		t.Error("corruption mutated a previously-read slice")
	}
	_, err = s.ReadVerified(d0, b)
	var ce *CorruptError
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt read = %v, want CorruptError", err)
	}
	if ce.Disk != d0 || ce.Bucket != b || ce.Page != 0 {
		t.Errorf("CorruptError = %+v, want disk %d bucket %d page 0", ce, d0, b)
	}
	// Sibling copy still clean; repair from it.
	clean, err := s.ReadVerified(d1, b)
	if err != nil {
		t.Fatalf("sibling copy also corrupt: %v", err)
	}
	bad := s.VerifyAll()
	if len(bad) != 1 || bad[0] != (CorruptError{Disk: d0, Bucket: b, Page: 0}) {
		t.Errorf("VerifyAll = %v", bad)
	}
	s.Repair(d0, b, clean)
	if _, err := s.ReadVerified(d0, b); err != nil {
		t.Errorf("repaired copy still fails: %v", err)
	}
	if len(s.VerifyAll()) != 0 {
		t.Error("VerifyAll still reports corruption after repair")
	}
	// Corrupt on nonsense coordinates is a no-op.
	if s.Corrupt(d0, b, 99) || s.Corrupt(3, 999999%s.Grid().Buckets(), -1) {
		t.Error("out-of-range Corrupt claimed success")
	}
}

func TestStoreDropDiskAndRebuildCycle(t *testing.T) {
	_, s := storeFixture(t)
	d := 1
	held := s.BucketsOn(d)
	if len(held) == 0 {
		t.Fatal("disk 1 holds nothing")
	}
	lost := s.DropDisk(d)
	if lost != len(held) {
		t.Errorf("DropDisk lost %d, held %d", lost, len(held))
	}
	if got := s.BucketsOn(d); len(got) != 0 {
		t.Errorf("dropped disk still holds %v", got)
	}
	missing := s.MissingOn(d)
	if len(missing) != len(held) {
		t.Errorf("MissingOn = %v, want the %d dropped buckets", missing, len(held))
	}
	// AddCopy rejects non-holders, then restores each bucket from the
	// surviving replica.
	if err := s.AddCopy(d, pickNonHeldBucket(s, d), nil); err == nil {
		t.Error("AddCopy onto non-holder accepted")
	}
	for _, b := range missing {
		var src []datagen.Record
		for _, h := range s.Holders(b) {
			if h == d {
				continue
			}
			recs, err := s.ReadVerified(h, b)
			if err != nil {
				continue
			}
			src = recs
			break
		}
		if err := s.AddCopy(d, b, src); err != nil {
			t.Fatalf("AddCopy(%d,%d): %v", d, b, err)
		}
	}
	if got := s.MissingOn(d); len(got) != 0 {
		t.Errorf("after rebuild MissingOn = %v, want none", got)
	}
	if len(s.VerifyAll()) != 0 {
		t.Error("rebuilt copies do not verify")
	}
}

func pickNonHeldBucket(s *Store, d int) int {
	for b := 0; b < s.Grid().Buckets(); b++ {
		held := false
		for _, h := range s.Holders(b) {
			if h == d {
				held = true
			}
		}
		if !held {
			return b
		}
	}
	return -1
}

func TestStoreConcurrency(t *testing.T) {
	_, s := storeFixture(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b := i % s.Grid().Buckets()
				for _, d := range s.Holders(b) {
					s.ReadVerified(d, b)
				}
				s.BucketsOn(w)
				s.VerifyAll()
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		b := i % s.Grid().Buckets()
		d := s.Holders(b)[0]
		s.Corrupt(d, b, 0)
		if other := s.Holders(b)[1]; other != d {
			if recs, err := s.ReadVerified(other, b); err == nil {
				s.Repair(d, b, recs)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestStoreCopiesOwnTheirValues checks NewStore's deep clone: changing
// the source file's values afterwards leaves every stored copy reading
// back verified and unchanged.
func TestStoreCopiesOwnTheirValues(t *testing.T) {
	f, s := storeFixture(t)
	want := make([][]datagen.Record, s.Grid().Buckets())
	for b := range want {
		for _, r := range f.Bucket(b) {
			want[b] = append(want[b], datagen.Record{ID: r.ID, Values: append([]float64(nil), r.Values...)})
		}
		for _, r := range f.Bucket(b) {
			for i := range r.Values {
				r.Values[i] = 1 - r.Values[i]
			}
		}
	}
	for b := range want {
		for _, d := range s.Holders(b) {
			recs, err := s.ReadVerified(d, b)
			if err != nil {
				t.Fatalf("read (%d,%d) after the source changed: %v", d, b, err)
			}
			if len(recs) != len(want[b]) {
				t.Fatalf("copy (%d,%d) holds %d records, want %d", d, b, len(recs), len(want[b]))
			}
			for i, r := range recs {
				if r.ID != want[b][i].ID || !slices.Equal(r.Values, want[b][i].Values) {
					t.Fatalf("copy (%d,%d) record %d = %v, want %v", d, b, i, r, want[b][i])
				}
			}
		}
	}
}

// TestStoreCloneTwoAllocs checks that a bucket copy costs one record
// array and one value slab, not one Values slice per record.
func TestStoreCloneTwoAllocs(t *testing.T) {
	recs := datagen.Uniform{K: 3, Seed: 2}.Generate(50)
	if n := testing.AllocsPerRun(10, func() { cloneRecords(recs) }); n != 2 {
		t.Fatalf("cloning %d records makes %.0f allocations, want 2", len(recs), n)
	}
}
