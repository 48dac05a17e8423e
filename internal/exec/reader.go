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
// or fetch from remote storage. Implementations must be safe for
// concurrent use — the executor reads up to one disk per runner at once.
// Each disk's reads for a query come from one goroutine, one at a time,
// in routed order.
type BucketReader interface {
	// ReadBucket returns the records of the row-major bucket b as served
	// by disk d. A returned error matching fault.ErrTransient is
	// retryable; any other error aborts the query.
	ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error)
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
