package exec

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"decluster/internal/datagen"
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

// mayWaitReader passes reads through and declares nothing, so the
// executor treats its reads as ones that may wait.
type mayWaitReader struct {
	inner BucketReader
}

func (r mayWaitReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// flights records the peak number of reads in flight at once through
// the readers its wrap makes.
type flights struct {
	mu             sync.Mutex
	inFlight, peak int
}

// wrap is a read wrapper: a RunReader over inner that forwards its
// NeverWaits and counts every call, ReadRun and ReadBucket alike.
func (f *flights) wrap(inner BucketReader) BucketReader { return flightCounter{inner, f} }

// hold counts one call in flight. It yields for a while, until a second
// call is in flight, so runs that can overlap do.
func (f *flights) hold() {
	f.mu.Lock()
	f.inFlight++
	f.peak = max(f.peak, f.inFlight)
	f.mu.Unlock()
	for i := 0; i < 100 && f.peakSeen() < 2; i++ {
		runtime.Gosched()
	}
	f.mu.Lock()
	f.inFlight--
	f.mu.Unlock()
}

func (f *flights) peakSeen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peak
}

type flightCounter struct {
	inner BucketReader
	f     *flights
}

func (c flightCounter) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	c.f.hold()
	return c.inner.ReadBucket(ctx, disk, bucket)
}

func (c flightCounter) ReadRun(ctx context.Context, disk int, buckets []int, pages [][]datagen.Record) (int, error) {
	c.f.hold()
	return ReadRun(ctx, c.inner, disk, buckets, pages)
}

func (c flightCounter) NeverWaits() bool { return NeverWaits(c.inner) }

// A query that only views the grid file's pages is read by its calling
// goroutine alone, whatever WithMaxParallel allows: a full-grid query
// over sixteen disks at WithMaxParallel(8) parks no worker, starts no
// goroutine, and has one read in flight at a time — also under
// transient faults retried without a backoff. Everything else keeps its
// overlapping runners: a retry policy that sleeps (so the backoffs of
// different disks overlap), the store reader (which verifies checksums
// on every read), and a layer that may wait.
func TestWaitlessQueryRunsOnCaller(t *testing.T) {
	const records = 4000
	f := newLoadedFile(t, 16, records)
	store, err := gridfile.NewStore(f, func(b int) []int { return []int{f.DiskOf(b)} })
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 3, TransientProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	quick := RetryPolicy{MaxAttempts: 30}
	sleepy := RetryPolicy{MaxAttempts: 30, BaseBackoff: 20 * time.Microsecond, MaxBackoff: 100 * time.Microsecond}
	for _, tc := range []struct {
		name     string
		opts     func(*flights) []Option
		onCaller bool
	}{
		{"file reader", func(c *flights) []Option {
			return []Option{WithReadWrapper(c.wrap)}
		}, true},
		{"file reader, retries without a backoff", func(c *flights) []Option {
			return []Option{WithFaults(inj), WithRetry(quick), WithReadWrapper(c.wrap)}
		}, true},
		{"file reader, retries that sleep", func(c *flights) []Option {
			return []Option{WithFaults(inj), WithRetry(sleepy), WithReadWrapper(c.wrap)}
		}, false},
		{"store reader", func(c *flights) []Option {
			return []Option{WithBucketReader(NewStoreReader(store)), WithReadWrapper(c.wrap)}
		}, false},
		{"a layer that may wait", func(c *flights) []Option {
			return []Option{WithReadWrapper(c.wrap), WithReadWrapper(func(r BucketReader) BucketReader { return mayWaitReader{r} })}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parked := emptyWorkerPool(t)
			c := &flights{}
			e, err := New(f, append(tc.opts(c), WithMaxParallel(8))...)
			if err != nil {
				t.Fatal(err)
			}
			goroutines := runtime.NumGoroutine()
			for i := 0; i < 5; i++ {
				res, err := e.RangeSearch(context.Background(), f.Grid().FullRect())
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Records) != records {
					t.Fatalf("got %d records, want %d", len(res.Records), records)
				}
				res.Release()
			}
			if !tc.onCaller {
				if c.peakSeen() < 2 {
					t.Fatalf("%d reads in flight at once, want at least 2", c.peakSeen())
				}
				return
			}
			if n := parked(); n != 0 {
				t.Fatalf("queries handed runs to %d workers", n)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Fatalf("queries started %d goroutines", n-goroutines)
			}
			if c.peakSeen() != 1 {
				t.Fatalf("%d reads in flight at once, want 1", c.peakSeen())
			}
		})
	}
}
