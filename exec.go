package decluster

import (
	"context"

	"decluster/internal/exec"
)

// Executor runs grid-file searches with real per-disk concurrency: each
// disk's run of buckets is read whole on one goroutine, and runs are
// read in parallel — the fan-out a parallel I/O subsystem performs, as
// live Go code rather than a timing model.
type Executor = exec.Executor

// ExecResult is the outcome of a parallel search: records in
// deterministic order plus per-disk bucket counts.
type ExecResult = exec.Result

// NewExecutor constructs a parallel executor over the grid file.
func NewExecutor(f *GridFile, opts ...ExecOption) (*Executor, error) {
	return exec.New(f, opts...)
}

// ExecOption configures an Executor.
type ExecOption = exec.Option

// WithMaxParallel bounds the number of disk runs read at once (default:
// one per disk, capped at 4·NumCPU); the calling goroutine is one of the
// runners. It bounds reads that may wait or work: a query that only
// views the grid file's pages (the default reader, no layer above it that
// may wait, no retry that sleeps) runs on the caller alone.
func WithMaxParallel(n int) ExecOption { return exec.WithMaxParallel(n) }

// ParallelRangeSearch is a convenience wrapper: build an executor and
// run one concurrent cell-range search.
func ParallelRangeSearch(ctx context.Context, f *GridFile, r Rect) (*ExecResult, error) {
	e, err := exec.New(f)
	if err != nil {
		return nil, err
	}
	return e.RangeSearch(ctx, r)
}
