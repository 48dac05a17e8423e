package exec

import (
	"context"
	"sync"

	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/gridfile"
)

// BucketReader serves the records of one bucket from one disk. It is
// the executor's pluggable I/O layer: the default implementation reads
// the in-memory grid file, and wrappers can inject faults, add caching,
// or fetch from remote storage.
//
// The contract: implementations must be safe for concurrent use — the
// executor reads up to one disk per runner at once — but each disk's
// reads for a query come from one goroutine, one at a time, in routed
// order. A returned error matching fault.ErrTransient is retryable; any
// other error aborts the query. The records returned may be a view of
// the reader's storage: the executor only reads them.
type BucketReader interface {
	// ReadBucket returns the records of the row-major bucket b as served
	// by disk d.
	ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error)
}

// RunReader is implemented by a reader that can read a stretch of one
// disk's run in one call. ReadRun reads buckets in order, as that many
// ReadBucket calls would — same records, same errors, same side effects
// — and stores each answer in pages at the same index. n counts the
// reads that succeeded before buckets[n] failed with err, and is
// len(buckets) when err is nil; after a failure pages[n:] are
// unspecified. The failed read is the caller's to retry, and the next
// stretch starts after it.
//
// Every read of a run is one ReadRun call (the package function) on the
// outermost reader, spanned, counted and timed as one attempt. A stretch
// is the rest of the run only while NeverWaits says true of that reader
// and no trace span is attached: it is read without a cancellation
// check, a span or a clock read between its buckets, which is right only
// for reads that cannot wait. Otherwise a stretch is one bucket, so that
// every attempt keeps its span and a read that can wait is timed on its
// own. A wrapper that implements ReadRun passes the stretch on with the
// package's ReadRun, whether or not its inner reader does.
type RunReader interface {
	ReadRun(ctx context.Context, disk int, buckets []int, pages [][]datagen.Record) (n int, err error)
}

// ReadRun reads buckets of disk through r as one stretch: in one
// ReadRun call when r is a RunReader, else one ReadBucket per bucket,
// stopping at the first error — the fallback the store reader and the
// fault layer rely on. Its results are RunReader.ReadRun's.
func ReadRun(ctx context.Context, r BucketReader, disk int, buckets []int, pages [][]datagen.Record) (int, error) {
	if rr, ok := r.(RunReader); ok {
		return rr.ReadRun(ctx, disk, buckets, pages)
	}
	return readEach(ctx, r, disk, buckets, pages)
}

// readEach reads a stretch one ReadBucket call per bucket.
func readEach(ctx context.Context, r BucketReader, disk int, buckets []int, pages [][]datagen.Record) (int, error) {
	for i, b := range buckets {
		recs, err := r.ReadBucket(ctx, disk, b)
		if err != nil {
			return i, err
		}
		pages[i] = recs
	}
	return len(buckets), nil
}

// RunEnder is implemented by a query's reader that keeps per-disk state
// across a run: the reads of one disk for one query, made one after
// another by the one goroutine that claimed the run. That goroutine
// calls EndRun(disk) once when the run ends, on every exit path —
// cancellation included — before the query returns, so whatever the
// reader deferred has landed by the time the caller sees the result.
// Every disk with buckets in the query gets exactly one EndRun; a disk
// without gets none.
// Only the outermost reader — the last WithReadWrapper's — is asked.
type RunEnder interface {
	EndRun(disk int)
}

// Waitless is implemented by a reader that can declare its reads never
// wait: no device, timer or remote call, only the CPU, as with a grid
// file's in-memory pages. Such a read is slow only while its goroutine
// is descheduled, and a backup read on the same CPUs cannot beat it, so
// a hedging layer above need not race it, and the executor reads each
// run in stretches (ReadRun) with no cancellation check between their
// reads — over the grid file's own pages, on its calling goroutine alone
// (see WithMaxParallel). The contract: a wrapper forwards its inner
// reader's answer, or says false if it may wait itself; a reader that
// does not implement Waitless may wait. The answer must not change
// during a query.
type Waitless interface {
	NeverWaits() bool
}

// NeverWaits reports whether r declares that its reads never wait.
func NeverWaits(r BucketReader) bool {
	w, ok := r.(Waitless)
	return ok && w.NeverWaits()
}

// NewFileReader returns the default grid-file BucketReader — the one an
// Executor uses when no WithBucketReader option is given — so callers
// composing their own reader stacks (latency simulation, caching,
// health observation) can wrap the same base layer.
func NewFileReader(f *gridfile.File) BucketReader { return fileReader{f: f} }

// fileReader is the default BucketReader: it serves the grid file's
// bucket storage directly as a read-only view — no coordinate
// round-trip, no result-set envelope, no copying. The executor's merge
// copies records into the query's Result before returning, so the view
// escapes only to a RangeSearchPages caller, which takes it as a view
// (Result.Pages). The disk argument is irrelevant — every replica serves
// identical bytes.
type fileReader struct {
	f *gridfile.File
}

// ReadBucket reads bucket b from the grid file.
func (r fileReader) ReadBucket(_ context.Context, _, b int) ([]datagen.Record, error) {
	return r.f.Bucket(b), nil
}

// ReadRun implements RunReader: a grid-file read cannot fail.
func (r fileReader) ReadRun(_ context.Context, _ int, buckets []int, pages [][]datagen.Record) (int, error) {
	for i, b := range buckets {
		pages[i] = r.f.Bucket(b)
	}
	return len(buckets), nil
}

// NeverWaits implements Waitless: a bucket is a page already in memory.
func (fileReader) NeverWaits() bool { return true }

// NewStoreReader returns a BucketReader over a checksummed physical
// store: unlike the grid-file reader, the disk argument matters — each
// read verifies the page checksums of *that disk's* copy, so a
// corrupted copy surfaces as an error matching gridfile.ErrCorrupt
// while its sibling replica still serves clean bytes. Reads of empty
// buckets short-circuit to nil without touching the store (the grid
// directory knows they hold no pages), mirroring the executor's
// skip-empty behavior. Pair it with a read-repair wrapper (package
// repair) to fix corruption inline, or let errors propagate to fail the
// query.
func NewStoreReader(s *gridfile.Store) BucketReader { return storeReader{s: s} }

// storeReader serves verified reads from a gridfile.Store.
type storeReader struct {
	s *gridfile.Store
}

// ReadBucket reads and verifies disk d's copy of bucket b.
func (r storeReader) ReadBucket(_ context.Context, d, b int) ([]datagen.Record, error) {
	if r.s.BucketPages(b) == 0 {
		return nil, nil
	}
	return r.s.ReadVerified(d, b)
}

// NeverWaits implements Waitless: a store's copies are in memory, and a
// read verifies them on the CPU.
func (storeReader) NeverWaits() bool { return true }

// faultReader wraps a BucketReader with an injector: each read first
// consults the injector, which may fail it (fail-stop disk) or make it
// transiently error. Attempt numbers are tracked per bucket so retries
// draw fresh, deterministic coins. The executor creates one faultReader
// per query, so a query's fault sequence is a pure function of the seed
// and its own reads — independent of previously executed queries and of
// concurrent queries on the same Executor.
type faultReader struct {
	inner BucketReader
	inj   *fault.Injector

	mu       sync.Mutex
	attempts map[int]int // bucket → reads issued so far
}

func newFaultReader(inner BucketReader, inj *fault.Injector) *faultReader {
	return &faultReader{inner: inner, inj: inj, attempts: make(map[int]int)}
}

// ReadBucket consults the injector before delegating to the inner
// reader.
func (r *faultReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	r.mu.Lock()
	r.attempts[bucket]++
	attempt := r.attempts[bucket]
	r.mu.Unlock()
	if err := r.inj.CheckRead(disk, bucket, attempt); err != nil {
		return nil, err
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// NeverWaits implements Waitless: the injector fails reads but never
// delays them, so the answer is the inner reader's.
func (r *faultReader) NeverWaits() bool { return NeverWaits(r.inner) }
