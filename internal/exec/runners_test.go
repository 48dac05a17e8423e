package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/grid"
)

// runProbe is a BucketReader that checks the executor's scheduling
// promises over one query: at most limit disks have a read in flight at
// once, no two reads of one disk overlap, and each disk reads its
// buckets of a rectangle in ascending order.
type runProbe struct {
	inner BucketReader

	mu       sync.Mutex
	inFlight []int // reads in flight per disk
	busy     int   // disks with a read in flight
	peak     int
	last     []int // the last bucket each disk read this query, −1 for none
	faults   []string
}

func newRunProbe(inner BucketReader, disks int) *runProbe {
	return &runProbe{inner: inner, inFlight: make([]int, disks), last: make([]int, disks)}
}

// reset readies the probe for the next query.
func (p *runProbe) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for d := range p.last {
		p.last[d] = -1
	}
	p.peak, p.faults = 0, nil
}

func (p *runProbe) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	p.mu.Lock()
	if p.inFlight[disk]++; p.inFlight[disk] > 1 {
		p.faults = append(p.faults, fmt.Sprintf("disk %d: two reads in flight at once", disk))
	} else {
		p.busy++
		p.peak = max(p.peak, p.busy)
	}
	if bucket <= p.last[disk] {
		p.faults = append(p.faults, fmt.Sprintf("disk %d: read bucket %d after bucket %d", disk, bucket, p.last[disk]))
	}
	p.last[disk] = bucket
	p.mu.Unlock()

	for i := 0; i < 20; i++ {
		runtime.Gosched() // a read that takes a while, so runs overlap
	}

	p.mu.Lock()
	if p.inFlight[disk]--; p.inFlight[disk] == 0 {
		p.busy--
	}
	p.mu.Unlock()
	return p.inner.ReadBucket(ctx, disk, bucket)
}

// check reports the query's faults and a peak above limit.
func (p *runProbe) check(t *testing.T, limit int) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		t.Error(f)
	}
	if p.peak > limit {
		t.Errorf("%d disks had a read in flight at once; the limit is %d", p.peak, limit)
	}
	if p.peak == 0 {
		t.Error("no read observed")
	}
}

// barrierReader holds each disk's first read until want disks have come
// to theirs, so a query passes only if want runs are in flight at once.
// It also records the peak number of disks with a read in flight.
type barrierReader struct {
	inner BucketReader
	want  int
	open  chan struct{}

	mu       sync.Mutex
	arrived  []bool
	n        int
	inFlight int
	peak     int
}

func (b *barrierReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	b.mu.Lock()
	first := !b.arrived[disk]
	if first {
		b.arrived[disk] = true
		if b.n++; b.n == b.want {
			close(b.open)
		}
	}
	b.inFlight++
	b.peak = max(b.peak, b.inFlight)
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.inFlight--
		b.mu.Unlock()
	}()
	if first {
		select {
		case <-b.open:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.inner.ReadBucket(ctx, disk, bucket)
}

// With fewer runners than disks, limit runs really overlap: the barrier
// lets no run past its first read until three disks are reading, so a
// query on two runners waits out its deadline. TestMaxParallelRespected
// bounds the overlap from above.
func TestMaxParallelRunsOverlap(t *testing.T) {
	const limit = 3
	f := newLoadedFile(t, 8, 5000) // every bucket occupied w.h.p.
	b := &barrierReader{inner: fileReader{f: f}, want: limit, open: make(chan struct{}), arrived: make([]bool, f.Disks())}
	e, err := New(f, WithMaxParallel(limit), WithBucketReader(b))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := e.RangeSearch(ctx, f.Grid().FullRect())
	if err != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
		t.Fatalf("%v: only %d of %d runs reached a read together", err, b.n, limit)
	}
	if len(res.Records) != 5000 {
		t.Fatalf("got %d records, want 5000", len(res.Records))
	}
	if b.peak != limit {
		t.Fatalf("peak of %d disks reading at once, want exactly %d", b.peak, limit)
	}
}

// endProbe counts, per disk, the reads and EndRun calls of one query and
// notes any read that comes after its disk's EndRun.
type endProbe struct {
	inner BucketReader

	mu          sync.Mutex
	reads, ends []int
	late        []string
}

func (p *endProbe) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	p.mu.Lock()
	p.reads[disk]++
	if p.ends[disk] > 0 {
		p.late = append(p.late, fmt.Sprintf("disk %d read bucket %d after its EndRun", disk, bucket))
	}
	p.mu.Unlock()
	return p.inner.ReadBucket(ctx, disk, bucket)
}

func (p *endProbe) EndRun(disk int) {
	p.mu.Lock()
	p.ends[disk]++
	p.mu.Unlock()
}

// Every disk with buckets in the query gets exactly one EndRun, after its
// last read and before RangeSearch returns, whether the query succeeds,
// a read fails, or the context ends before or during it; a disk without
// buckets gets none. Runs claimed after cancellation (one runner) end
// too. The probe is either the base reader's wrapper, on the executor's
// own context, or the outermost read wrapper, on the stdlib contexts.
func TestRunEnderContract(t *testing.T) {
	f := newLoadedFile(t, 8, 5000)
	g := f.Grid()
	r := g.MustRect(grid.Coord{0, 0}, grid.Coord{2, 1})
	active := make([]bool, f.Disks())
	for _, b := range g.AppendRect(nil, r) {
		active[f.DiskOf(b)] = true
	}
	idle := 0
	for _, a := range active {
		if !a {
			idle++
		}
	}
	if idle == 0 || idle == len(active) {
		t.Fatalf("fixture: rect %v leaves %d of %d disks idle; want some of each", r, idle, len(active))
	}

	canceled := func(err error) bool { return errors.Is(err, context.Canceled) }
	cases := []struct {
		name string
		// setup returns the query's context and base reader.
		setup func(t *testing.T) (context.Context, BucketReader)
		want  func(error) bool
	}{
		{"healthy", func(*testing.T) (context.Context, BucketReader) {
			return context.Background(), fileReader{f: f}
		}, func(err error) bool { return err == nil }},
		{"read fails", func(*testing.T) (context.Context, BucketReader) {
			return context.Background(), &failOnceReader{inner: fileReader{f: f}}
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "media error") }},
		{"cancelled before", func(*testing.T) (context.Context, BucketReader) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, fileReader{f: f}
		}, canceled},
		{"cancelled by first read", func(t *testing.T) (context.Context, BucketReader) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			br := &blockingReader{started: make(chan struct{})}
			go func() {
				<-br.started
				cancel()
			}()
			return ctx, br
		}, canceled},
	}
	for _, tc := range cases {
		for _, wrapped := range []bool{false, true} {
			for _, limit := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/wrapped=%v/limit=%d", tc.name, wrapped, limit), func(t *testing.T) {
					ctx, base := tc.setup(t)
					p := &endProbe{reads: make([]int, f.Disks()), ends: make([]int, f.Disks())}
					opts := []Option{WithMaxParallel(limit)}
					if wrapped {
						opts = append(opts, WithBucketReader(base), WithReadWrapper(func(inner BucketReader) BucketReader {
							p.inner = inner
							return p
						}))
					} else {
						p.inner = base
						opts = append(opts, WithBucketReader(p))
					}
					e, err := New(f, opts...)
					if err != nil {
						t.Fatal(err)
					}
					_, err = e.RangeSearch(ctx, r)
					if !tc.want(err) {
						t.Fatalf("query returned %v", err)
					}
					p.mu.Lock()
					defer p.mu.Unlock()
					for _, l := range p.late {
						t.Error(l)
					}
					for d, a := range active {
						switch {
						case a && p.ends[d] != 1:
							t.Errorf("disk %d has buckets in the query and got %d EndRuns by return, want 1", d, p.ends[d])
						case !a && (p.ends[d] != 0 || p.reads[d] != 0):
							t.Errorf("idle disk %d got %d reads and %d EndRuns", d, p.reads[d], p.ends[d])
						}
					}
				})
			}
		}
	}
}

// emptyWorkerPool sets the parked workers aside until the test ends, so
// any handoff the test makes shows as a parked worker, and returns a
// count of the workers parked since.
func emptyWorkerPool(t *testing.T) (parked func() int) {
	workerPool.mu.Lock()
	saved := workerPool.free
	workerPool.free = nil
	workerPool.mu.Unlock()
	t.Cleanup(func() {
		workerPool.mu.Lock()
		workerPool.free = append(workerPool.free, saved...)
		workerPool.mu.Unlock()
	})
	return func() int {
		workerPool.mu.Lock()
		defer workerPool.mu.Unlock()
		return len(workerPool.free)
	}
}

// The caller is a runner: over a reader that may wait, a query whose
// buckets all sit on one disk hands nothing to the worker pool, and a
// query over eight disks at WithMaxParallel(3) hands its runs to two
// parked workers besides the caller — the same two every time once
// warm, so no goroutine starts. The pool is emptied first, so any
// handoff shows as a parked worker.
func TestCallerAsRunner(t *testing.T) {
	f := newLoadedFile(t, 8, 2000)
	g := f.Grid()
	e, err := New(f, WithMaxParallel(3), WithBucketReader(mayWaitReader{fileReader{f: f}}))
	if err != nil {
		t.Fatal(err)
	}
	parked := emptyWorkerPool(t)
	ctx := context.Background()
	query := func(search func() (*Result, error)) {
		t.Helper()
		res, err := search()
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}

	var disk0 []int
	for b := 0; b < g.Buckets(); b++ {
		if f.DiskOf(b) == 0 {
			disk0 = append(disk0, b)
		}
	}
	cell := g.MustRect(grid.Coord{5, 7}, grid.Coord{5, 7})
	goroutines := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		query(func() (*Result, error) { return e.RangeSearchBuckets(ctx, disk0) })
		query(func() (*Result, error) { return e.RangeSearch(ctx, cell) })
	}
	if n := parked(); n != 0 {
		t.Fatalf("one-disk queries handed runs to %d workers", n)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("one-disk queries started %d goroutines", n-goroutines)
	}

	full := g.FullRect()
	for i := 0; i < 8; i++ {
		query(func() (*Result, error) { return e.RangeSearch(ctx, full) })
	}
	warm := parked()
	if warm > 2 {
		t.Fatalf("warm-up parked %d workers; at WithMaxParallel(3) the caller and 2 workers run", warm)
	}
	goroutines = runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		query(func() (*Result, error) { return e.RangeSearch(ctx, full) })
	}
	if n := parked(); n != warm {
		t.Fatalf("100 warm queries left %d parked workers, warm-up %d", n, warm)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("100 warm queries started %d goroutines", n-goroutines)
	}
}
