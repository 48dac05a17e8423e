package exec

import (
	"sync"
	"testing"

	"decluster/internal/fault"
	"decluster/internal/gridfile"
)

// The in-memory readers declare that their reads never wait, the fault
// layer forwards its inner reader's answer, and a reader that does not
// declare it — any foreign wrapper — may wait, whatever it wraps.
func TestReadsNeverWait(t *testing.T) {
	f := newLoadedFile(t, 4, 500)
	store, err := gridfile.NewStore(f, func(b int) []int { return []int{f.DiskOf(b)} })
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	file := NewFileReader(f)
	var mu sync.Mutex
	var order []string
	foreign := taggingReader{inner: file, tag: "foreign", mu: &mu, order: &order}
	for _, tc := range []struct {
		name string
		r    BucketReader
		want bool
	}{
		{"file reader", file, true},
		{"store reader", NewStoreReader(store), true},
		{"fault layer over the file reader", newFaultReader(file, inj), true},
		{"fault layer over the store reader", newFaultReader(NewStoreReader(store), inj), true},
		{"fault layer over a reader that may wait", newFaultReader(foreign, inj), false},
		{"foreign wrapper over the file reader", foreign, false},
	} {
		if got := NeverWaits(tc.r); got != tc.want {
			t.Errorf("%s: NeverWaits = %v, want %v", tc.name, got, tc.want)
		}
	}

	// The executor's per-query stack answers for its outermost layer.
	for _, tc := range []struct {
		name string
		opts []Option
		want bool
	}{
		{"default reader", nil, true},
		{"default reader under faults", []Option{WithFaults(inj)}, true},
		{"foreign wrapper", []Option{WithReadWrapper(func(inner BucketReader) BucketReader {
			return taggingReader{inner: inner, tag: "foreign", mu: &mu, order: &order}
		})}, false},
	} {
		e, err := New(f, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := NeverWaits(e.queryReader()); got != tc.want {
			t.Errorf("%s: the query's reader NeverWaits = %v, want %v", tc.name, got, tc.want)
		}
	}
}
