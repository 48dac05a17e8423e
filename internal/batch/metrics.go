package batch

import (
	"sync/atomic"

	"decluster/internal/obs"
)

// Stats is a snapshot of the engine's lifetime counters. Identities,
// exact at quiescence:
//
//	Issued == Answered + Failed           (Abandoned ⊆ Failed)
//	Demand == Physical + Deduped + Pruned (so Physical ≤ Demand)
type Stats struct {
	// Issued counts logical queries submitted; Answered those delivered
	// records; Failed the rest — read errors, engine close, and
	// abandonment, the latter also counted in Abandoned.
	Issued, Answered, Failed, Abandoned uint64
	// Groups counts executed batch groups.
	Groups uint64
	// Demand is the logical bucket demand summed over queries; Physical
	// the bucket reads dispatched, failed or not; Deduped the reads
	// dedup eliminated at plan time; Pruned the planned reads never
	// dispatched because every covering query had already abandoned.
	Demand, Physical, Deduped, Pruned uint64
	// AggIssued/AggAnswered/AggFailed count aggregate queries, which
	// never touch a BucketReader: AggIssued == AggAnswered + AggFailed.
	AggIssued, AggAnswered, AggFailed uint64
}

// batchCounters is the internal atomic mirror of Stats.
type batchCounters struct {
	Issued, Answered, Failed, Abandoned atomic.Uint64
	Groups                              atomic.Uint64
	Demand, Physical, Deduped, Pruned   atomic.Uint64
	AggIssued, AggAnswered, AggFailed   atomic.Uint64
}

// batchMetrics holds the engine's pre-resolved obs handles. The zero
// value (all nil) is the disabled state — every handle no-ops on nil.
// Counters mirror the Stats fields increment-for-increment at the same
// sites, so a conservation test can compare the two exactly.
type batchMetrics struct {
	issued, answered, failed, abandoned *obs.Counter
	groups                              *obs.Counter
	demand, physical, deduped, pruned   *obs.Counter
	aggIssued, aggAnswered, aggFailed   *obs.Counter
	windowWait, queryLatency            *obs.Histogram
	groupLatency                        *obs.Histogram
}

// newBatchMetrics registers the engine's metric set — at construction,
// not lazily, so the dump's name set is deterministic.
func newBatchMetrics(r *obs.Registry) batchMetrics {
	return batchMetrics{
		issued:       r.Counter("batch.queries.issued"),
		answered:     r.Counter("batch.queries.answered"),
		failed:       r.Counter("batch.queries.failed"),
		abandoned:    r.Counter("batch.queries.abandoned"),
		groups:       r.Counter("batch.groups"),
		demand:       r.Counter("batch.demand.buckets"),
		physical:     r.Counter("batch.reads.physical"),
		deduped:      r.Counter("batch.reads.deduped"),
		pruned:       r.Counter("batch.reads.pruned"),
		aggIssued:    r.Counter("batch.aggregate.issued"),
		aggAnswered:  r.Counter("batch.aggregate.answered"),
		aggFailed:    r.Counter("batch.aggregate.failed"),
		windowWait:   r.Histogram("batch.window.wait"),
		queryLatency: r.Histogram("batch.query.latency"),
		groupLatency: r.Histogram("batch.group.latency"),
	}
}
