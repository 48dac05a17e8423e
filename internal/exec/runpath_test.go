package exec

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/obs"
)

// stretchProbe forwards a never-waiting stack and counts the calls of
// each kind it serves.
type stretchProbe struct {
	inner        BucketReader
	runs, single atomic.Int64
}

func (p *stretchProbe) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	p.single.Add(1)
	return p.inner.ReadBucket(ctx, disk, bucket)
}

func (p *stretchProbe) ReadRun(ctx context.Context, disk int, buckets []int, pages [][]datagen.Record) (int, error) {
	p.runs.Add(1)
	return ReadRun(ctx, p.inner, disk, buckets, pages)
}

func (p *stretchProbe) NeverWaits() bool { return NeverWaits(p.inner) }

// oneAtATime forwards a stack but is no RunReader and declares nothing,
// so the executor reads through it one attempt of one bucket at a time.
type oneAtATime struct{ inner BucketReader }

func (r oneAtATime) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// failStop is a base reader whose disk stops answering after its after
// reads: every later read of it fails with fault.ErrDiskFailed.
type failStop struct {
	inner BucketReader
	disk  int
	after int64
	reads atomic.Int64
}

func (r *failStop) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if disk == r.disk && r.reads.Add(1) > r.after {
		return nil, fault.ErrDiskFailed
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

func (r *failStop) NeverWaits() bool { return true }

// cancelOnRead cancels the query's context at its first read, which
// still answers.
type cancelOnRead struct {
	inner  BucketReader
	cancel context.CancelFunc
}

func (r cancelOnRead) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	r.cancel()
	return r.inner.ReadBucket(ctx, disk, bucket)
}

func (cancelOnRead) NeverWaits() bool { return true }

// readCounters lists the executor's read accounting.
var readCounters = []string{
	"exec.read.calls", "exec.read.calls.ok", "exec.read.calls.err", "exec.read.calls.cancelled",
	"exec.read.attempts", "exec.read.attempts.ok", "exec.read.attempts.err", "exec.read.attempts.retried",
}

// A run read in stretches gives what the same reads give one bucket per
// call: the same answer, BucketsPerDisk and Retries under transient
// errors, the same error when a disk goes fail-stop mid-run, the same
// exec.read.* counts with a tally attached — each side conserved, every
// call and every attempt ending one way — and context.Canceled when the
// query is cancelled between stretches. The fault layer with no wrapper
// over it is read in stretches through ReadRun's fallback, and a
// wrapper that is no RunReader is read one bucket per call.
func TestRunPathMatchesPerBucket(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	q := f.Grid().MustRect(grid.Coord{1, 1}, grid.Coord{12, 12})
	ctx := context.Background()

	// search runs q once in stretches (stretched) and once one bucket per
	// call, each through a fresh stack from base, and returns both
	// outcomes and the probe under the stretched stack.
	type outcome struct {
		res *Result
		err error
	}
	search := func(t *testing.T, base func() BucketReader, opts ...Option) (stretched, single outcome, probe *stretchProbe) {
		t.Helper()
		for _, runs := range []bool{true, false} {
			var wrap func(BucketReader) BucketReader
			if runs {
				wrap = func(inner BucketReader) BucketReader {
					probe = &stretchProbe{inner: inner}
					return probe
				}
			} else {
				wrap = func(inner BucketReader) BucketReader { return oneAtATime{inner} }
			}
			e, err := New(f, append([]Option{WithBucketReader(base()), WithReadWrapper(wrap)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RangeSearch(ctx, q)
			if runs {
				stretched = outcome{res, err}
			} else {
				single = outcome{res, err}
			}
		}
		if probe.runs.Load() == 0 {
			t.Error("the stretched stack was never read in a stretch")
		}
		return stretched, single, probe
	}
	same := func(t *testing.T, a, b outcome) {
		t.Helper()
		if a.err != nil || b.err != nil {
			t.Fatalf("stretched query: %v; one bucket per call: %v", a.err, b.err)
		}
		if !slices.Equal(recordIDs(a.res.Records), recordIDs(b.res.Records)) {
			t.Errorf("answers differ: %d records in stretches, %d one bucket per call", len(a.res.Records), len(b.res.Records))
		}
		if !slices.Equal(a.res.BucketsPerDisk, b.res.BucketsPerDisk) {
			t.Errorf("BucketsPerDisk %v in stretches, %v one bucket per call", a.res.BucketsPerDisk, b.res.BucketsPerDisk)
		}
		if a.res.Retries != b.res.Retries {
			t.Errorf("Retries %d in stretches, %d one bucket per call", a.res.Retries, b.res.Retries)
		}
	}
	file := func() BucketReader { return fileReader{f: f} }
	transient := func(t *testing.T) Option {
		inj, err := fault.New(fault.Config{Seed: 31, TransientProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return WithFaults(inj)
	}
	retry := WithRetry(RetryPolicy{MaxAttempts: 10})

	t.Run("transient", func(t *testing.T) {
		a, b, _ := search(t, file, transient(t), retry)
		same(t, a, b)
		if a.res.Retries == 0 {
			t.Error("no retries at a 30% transient rate")
		}
	})

	t.Run("fail-stop mid-run", func(t *testing.T) {
		const disk = 2
		a, b, _ := search(t, func() BucketReader { return &failStop{inner: file(), disk: disk, after: 5} }, WithMaxParallel(1), retry)
		if !errors.Is(a.err, fault.ErrDiskFailed) || b.err == nil || a.err.Error() != b.err.Error() {
			t.Errorf("stretched query: %v; one bucket per call: %v; want the same fail-stop error", a.err, b.err)
		}
	})

	// sameTally checks that the two stacks' sinks counted the same reads,
	// and that each conserves them.
	sameTally := func(t *testing.T, sinks [2]*obs.Sink) {
		t.Helper()
		for _, name := range readCounters {
			if x, y := sinks[0].Registry().Counter(name).Value(), sinks[1].Registry().Counter(name).Value(); x != y {
				t.Errorf("%s: %d in stretches, %d one bucket per call", name, x, y)
			}
		}
		for i, s := range sinks {
			reg := s.Registry()
			c := func(name string) uint64 { return reg.Counter(name).Value() }
			if calls, ended := c("exec.read.calls"), c("exec.read.calls.ok")+c("exec.read.calls.err")+c("exec.read.calls.cancelled"); calls != ended {
				t.Errorf("stack %d: %d calls, %d ok + err + cancelled", i, calls, ended)
			}
			attempts := c("exec.read.attempts")
			if ended := c("exec.read.attempts.ok") + c("exec.read.attempts.err") + c("exec.read.attempts.retried"); attempts != ended {
				t.Errorf("stack %d: %d attempts, %d ok + err + retried", i, attempts, ended)
			}
			if got := reg.HistogramFamily("exec.disk.read.latency", "disk", 1).Count(); got != attempts {
				t.Errorf("stack %d: %d latency samples for %d attempts", i, got, attempts)
			}
			if got := reg.CounterFamily("exec.disk.read.attempts", "disk", 1).Sum(); got != attempts {
				t.Errorf("stack %d: per-disk attempts sum to %d, want %d", i, got, attempts)
			}
		}
	}

	t.Run("tally", func(t *testing.T) {
		sinks := [2]*obs.Sink{obs.NewSink(), obs.NewSink()}
		n := 0
		observe := func(e *Executor) { WithObserver(sinks[n])(e); n++ }
		a, b, _ := search(t, file, transient(t), retry, observe)
		same(t, a, b)
		if a.res.Retries == 0 {
			t.Error("no retries at a 30% transient rate")
		}
		sameTally(t, sinks)
	})

	t.Run("fault layer unwrapped", func(t *testing.T) {
		sinks := [2]*obs.Sink{obs.NewSink(), obs.NewSink()}
		var out [2]outcome
		for i, wraps := range [][]Option{nil, {WithReadWrapper(func(inner BucketReader) BucketReader { return oneAtATime{inner} })}} {
			e, err := New(f, append([]Option{WithBucketReader(file()), transient(t), retry, WithObserver(sinks[i])}, wraps...)...)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 && !NeverWaits(e.queryReader()) {
				t.Fatal("the fault layer over the file reader may wait; the cell reads nothing in stretches")
			}
			res, err := e.RangeSearch(ctx, q)
			out[i] = outcome{res, err}
		}
		same(t, out[0], out[1])
		if out[0].res.Retries == 0 {
			t.Error("no retries at a 30% transient rate")
		}
		sameTally(t, sinks)
	})

	t.Run("cancelled between stretches", func(t *testing.T) {
		var probe *stretchProbe
		for _, runs := range []bool{true, false} {
			cctx, cancel := context.WithCancel(ctx)
			wrap := func(inner BucketReader) BucketReader { return oneAtATime{inner} }
			if runs {
				wrap = func(inner BucketReader) BucketReader {
					probe = &stretchProbe{inner: inner}
					return probe
				}
			}
			e, err := New(f, WithMaxParallel(1), WithBucketReader(cancelOnRead{inner: file(), cancel: cancel}), WithReadWrapper(wrap))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RangeSearch(cctx, q); !errors.Is(err, context.Canceled) {
				t.Errorf("stretched %v: query returned %v, want %v", runs, err, context.Canceled)
			}
			cancel()
		}
		if n := probe.runs.Load(); n != 1 {
			t.Errorf("%d stretches read after the first cancelled the query, want none", n-1)
		}
	})

	t.Run("not a RunReader", func(t *testing.T) {
		var probe *stretchProbe
		e, err := New(f, WithReadWrapper(func(inner BucketReader) BucketReader {
			probe = &stretchProbe{inner: inner}
			return oneAtATime{probe}
		}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RangeSearch(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		read := 0
		for _, n := range res.BucketsPerDisk {
			read += n
		}
		if probe.runs.Load() != 0 || probe.single.Load() != int64(read) {
			t.Errorf("under a wrapper that is no RunReader: %d stretches and %d single reads, want 0 and %d",
				probe.runs.Load(), probe.single.Load(), read)
		}
	})
}

// recordIDs lists the records' IDs in order.
func recordIDs(recs []datagen.Record) []int {
	ids := make([]int, len(recs))
	for i, rec := range recs {
		ids[i] = rec.ID
	}
	return ids
}
