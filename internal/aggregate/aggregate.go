// Package aggregate answers COUNT/SUM/MIN/MAX over a cell rectangle of a
// grid file from a per-bucket summary, with no bucket read.
package aggregate

import (
	"fmt"
	"math"

	"decluster/internal/grid"
	"decluster/internal/gridfile"
)

// AggregateOp selects the aggregate a query computes over a rectangle.
type AggregateOp int

const (
	// OpCount counts the records inside the rectangle.
	OpCount AggregateOp = iota
	// OpSum sums one attribute over the records inside the rectangle.
	OpSum
	// OpMin takes the minimum of one attribute.
	OpMin
	// OpMax takes the maximum of one attribute.
	OpMax
)

// String names the op for logs and error messages; the wire carries
// the op as a kind byte, not by name.
func (o AggregateOp) String() string {
	switch o {
	case OpCount:
		return "count"
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return "unknown"
	}
}

// AggregateQuery asks for one aggregate over a cell rectangle.
type AggregateQuery struct {
	// Rect is the cell rectangle to aggregate over.
	Rect grid.Rect
	// Op selects the aggregate.
	Op AggregateOp
	// Attr is the attribute OpSum/OpMin/OpMax reduce (ignored by
	// OpCount).
	Attr int
}

// AggregateResult is an aggregate answer. Count is always filled — it
// is what tells a merging router whether Min/Max carry a value at all.
type AggregateResult struct {
	Op   AggregateOp
	Attr int
	// Count is the number of records in the rectangle.
	Count int64
	// Sum is the attribute total (OpSum).
	Sum float64
	// Min and Max are the attribute extrema (OpMin/OpMax); meaningful
	// only when Count > 0.
	Min, Max float64
	// Buckets is the number of grid buckets the rectangle covers.
	Buckets int
}

// MergeAggregates folds partial results of the same (op, attr) — e.g.
// per-shard answers gathered by the cluster router — into one.
func MergeAggregates(op AggregateOp, attr int, parts []AggregateResult) AggregateResult {
	out := AggregateResult{Op: op, Attr: attr}
	for _, p := range parts {
		if p.Count > 0 {
			if out.Count == 0 || p.Min < out.Min {
				out.Min = p.Min
			}
			if out.Count == 0 || p.Max > out.Max {
				out.Max = p.Max
			}
		}
		out.Count += p.Count
		out.Sum += p.Sum
		out.Buckets += p.Buckets
	}
	return out
}

// AggregateIndex answers COUNT/SUM/MIN/MAX over any cell rectangle
// without a single bucket read. It summarises each grid bucket — the
// paper's unit of work — by its record count and, per attribute, its
// value sum and extrema, and answers a query by walking the
// rectangle's buckets once: O(volume) in-memory probes for every op.
// A summed-area table would fold COUNT and SUM from 2^k corners, but
// it cannot serve MIN or MAX, and the walk is a few µs of an aggregate
// leg that spends most of its time on the wire (DESIGN §17).
//
// The index is an immutable snapshot of the file at build time, safe
// for concurrent use. Records() lets a holder detect staleness against
// File.Len() and rebuild.
type AggregateIndex struct {
	g       *grid.Grid
	k       int
	records int64
	// Indexed by row-major bucket number: the record count, and per
	// attribute the value sum and extrema (valid iff count > 0).
	count            []int64
	sums, mins, maxs [][]float64
}

// BuildAggregateIndex snapshots the file's per-bucket aggregates in one
// pass over its buckets, O(k·records + buckets). It reads buckets
// through the file's directory — the grid-file API, not a
// BucketReader — so building and querying the index never count as
// disk reads.
func BuildAggregateIndex(f *gridfile.File) (*AggregateIndex, error) {
	if f == nil {
		return nil, fmt.Errorf("aggregate: nil grid file")
	}
	g := f.Grid()
	k, nb := g.K(), g.Buckets()
	ix := &AggregateIndex{
		g:     g,
		k:     k,
		count: make([]int64, nb),
		sums:  make([][]float64, k),
		mins:  make([][]float64, k),
		maxs:  make([][]float64, k),
	}
	for a := 0; a < k; a++ {
		ix.sums[a] = make([]float64, nb)
		ix.mins[a] = make([]float64, nb)
		ix.maxs[a] = make([]float64, nb)
	}
	for b := 0; b < nb; b++ {
		recs := f.Bucket(b)
		if len(recs) == 0 {
			continue
		}
		ix.count[b] = int64(len(recs))
		ix.records += int64(len(recs))
		for a := 0; a < k; a++ {
			sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
			for _, rec := range recs {
				v := rec.Values[a]
				sum += v
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			ix.sums[a][b], ix.mins[a][b], ix.maxs[a][b] = sum, lo, hi
		}
	}
	return ix, nil
}

// Records is the record count the index reflects — compare with
// File.Len() to detect staleness.
func (ix *AggregateIndex) Records() int64 { return ix.records }

// Aggregate answers one aggregate query in one walk over the
// rectangle's buckets.
func (ix *AggregateIndex) Aggregate(q AggregateQuery) (AggregateResult, error) {
	r := q.Rect
	if err := ix.g.CheckRect(r); err != nil {
		return AggregateResult{}, fmt.Errorf("aggregate: %w", err)
	}
	if q.Op != OpCount && (q.Attr < 0 || q.Attr >= ix.k) {
		return AggregateResult{}, fmt.Errorf("aggregate: attribute %d outside [0,%d)", q.Attr, ix.k)
	}
	res := AggregateResult{Op: q.Op, Attr: q.Attr, Buckets: r.Volume()}
	var sums, mins, maxs []float64
	switch q.Op {
	case OpSum:
		sums = ix.sums[q.Attr]
	case OpMin, OpMax:
		mins, maxs = ix.mins[q.Attr], ix.maxs[q.Attr]
	}
	ix.g.EachBucket(r, func(b int) bool {
		n := ix.count[b]
		if n == 0 {
			return true
		}
		if sums != nil {
			res.Sum += sums[b]
		} else if mins != nil {
			if res.Count == 0 || mins[b] < res.Min {
				res.Min = mins[b]
			}
			if res.Count == 0 || maxs[b] > res.Max {
				res.Max = maxs[b]
			}
		}
		res.Count += n
		return true
	})
	return res, nil
}
