package decluster

import (
	"context"
	"time"

	"decluster/internal/aggregate"
	"decluster/internal/batch"
	"decluster/internal/serve"
)

// BatchEngine groups in-flight range queries inside a small time/size
// window, dedupes their shared bucket demand so each distinct bucket is
// read once physically and fanned out to every covering query, and
// dispatches each group as one bucket-set read through the Scheduler's
// admission path. Abandoning one query never cancels a read another
// query still needs. The engine also answers aggregate queries
// (COUNT/SUM/MIN/MAX over a rectangle) from a per-bucket summary walked
// over the rectangle, with zero bucket reads.
type BatchEngine = batch.Engine

// BatchOption configures a BatchEngine.
type BatchOption = batch.Option

// BatchQuery is one logical unit of batching: a cell rectangle plus
// the admission priority its group's physical reads inherit.
type BatchQuery = batch.Query

// BatchAnswer is one logical query's result; Records are bit-identical
// to the same rectangle issued unbatched.
type BatchAnswer = batch.Answer

// BatchStats is a snapshot of an engine's lifetime counters.
type BatchStats = batch.Stats

// AggregateOp selects the aggregate a query computes.
type AggregateOp = aggregate.AggregateOp

// Aggregate operators, answered without any bucket reads.
const (
	AggCount = aggregate.OpCount
	AggSum   = aggregate.OpSum
	AggMin   = aggregate.OpMin
	AggMax   = aggregate.OpMax
)

// AggregateQuery asks for one aggregate over a cell rectangle.
type AggregateQuery = aggregate.AggregateQuery

// AggregateResult is an aggregate answer.
type AggregateResult = aggregate.AggregateResult

// ErrBatchClosed matches queries submitted to a closed engine.
var ErrBatchClosed = batch.ErrClosed

// NewBatchEngine layers a batch engine over a scheduler: each group's
// deduped bucket reads are admitted through s like any other query.
// Build it after loading the file — it snapshots the records into the
// aggregate index.
func NewBatchEngine(f *GridFile, s *Scheduler, opts ...BatchOption) (*BatchEngine, error) {
	return batch.New(f, func(ctx context.Context, buckets []int, prio int) (*ExecResult, error) {
		return s.DoBuckets(ctx, serve.BucketQuery{Buckets: buckets, Priority: prio})
	}, opts...)
}

// MergeAggregates folds partial aggregate results of the same
// (op, attr) — e.g. per-shard answers — into one.
func MergeAggregates(op AggregateOp, attr int, parts []AggregateResult) AggregateResult {
	return aggregate.MergeAggregates(op, attr, parts)
}

// WithBatchWindow sets the batching window: a group dispatches when
// its oldest member has waited this long (default 2ms).
func WithBatchWindow(d time.Duration) BatchOption { return batch.WithWindow(d) }

// WithBatchMax caps a group's size; a full group dispatches without
// waiting out the window (default 16).
func WithBatchMax(n int) BatchOption { return batch.WithMaxBatch(n) }
