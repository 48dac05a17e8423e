// Package partition computes grid partition boundaries from data. The
// declustering literature assumes the Cartesian product file's
// partitioning tracks the data distribution ("the data distribution
// tends to remain fairly stable and thus the allocation of buckets
// remains fixed over time"); for skewed data that means *equi-depth*
// boundaries — per-axis quantiles of a sample — rather than equal-width
// intervals, so every row/column of buckets carries comparable record
// mass and the declustering methods' balance guarantees survive skew.
package partition

import (
	"fmt"
	"sort"
)

// EquiDepth computes, for each attribute, the dims[i]−1 interior
// boundaries that split the sample's values into dims[i] equally
// populated partitions. sample is row-major: sample[r][i] is record
// r's attribute i, each value in [0, 1). Boundaries are strictly
// increasing; when duplicate-heavy data yields fewer distinct cut
// points than requested, an error is returned (the axis cannot support
// that many non-empty partitions).
func EquiDepth(sample [][]float64, dims []int) ([][]float64, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("partition: empty sample")
	}
	k := len(dims)
	if k == 0 {
		return nil, fmt.Errorf("partition: no dimensions")
	}
	for r, row := range sample {
		if len(row) != k {
			return nil, fmt.Errorf("partition: sample row %d has %d attributes; want %d", r, len(row), k)
		}
		for i, v := range row {
			if !(v >= 0 && v < 1) { // in this form NaN fails too
				return nil, fmt.Errorf("partition: sample row %d attribute %d = %v outside [0,1)", r, i, v)
			}
		}
	}
	out := make([][]float64, k)
	for i, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("partition: dimension %d has %d partitions; need ≥ 1", i, d)
		}
		if d == 1 {
			out[i] = nil
			continue
		}
		vals := make([]float64, len(sample))
		for r, row := range sample {
			vals[r] = row[i]
		}
		sort.Float64s(vals)
		bounds := make([]float64, 0, d-1)
		for j := 1; j < d; j++ {
			idx := j * len(vals) / d
			if idx >= len(vals) {
				idx = len(vals) - 1
			}
			b := vals[idx]
			if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
				return nil, fmt.Errorf("partition: attribute %d cannot support %d equi-depth partitions (duplicate mass at %v)", i, d, b)
			}
			if b <= 0 {
				return nil, fmt.Errorf("partition: attribute %d quantile %d collapses to 0", i, j)
			}
			bounds = append(bounds, b)
		}
		out[i] = bounds
	}
	return out, nil
}

// Uniform returns the d−1 equal-width interior boundaries of [0, 1) —
// the default partitioning made explicit, for mixing with equi-depth
// axes (e.g. a low-cardinality categorical axis whose quantiles
// collapse).
func Uniform(d int) []float64 {
	if d <= 1 {
		return nil
	}
	out := make([]float64, d-1)
	for i := range out {
		out[i] = float64(i+1) / float64(d)
	}
	return out
}

// Validate checks a boundary set against grid dimensions: per axis,
// exactly dims[i]−1 strictly increasing values inside (0, 1).
func Validate(boundaries [][]float64, dims []int) error {
	if len(boundaries) != len(dims) {
		return fmt.Errorf("partition: %d boundary axes for %d dimensions", len(boundaries), len(dims))
	}
	for i, bs := range boundaries {
		if len(bs) != dims[i]-1 {
			return fmt.Errorf("partition: axis %d has %d boundaries; want %d", i, len(bs), dims[i]-1)
		}
		prev := 0.0
		for j, b := range bs {
			if b <= prev || b >= 1 {
				return fmt.Errorf("partition: axis %d boundary %d = %v not strictly inside (%v, 1)", i, j, b, prev)
			}
			prev = b
		}
	}
	return nil
}

// Locate returns the partition index of value v on an axis with the
// given interior boundaries: the number of boundaries ≤ v.
func Locate(boundaries []float64, v float64) int {
	return sort.SearchFloat64s(boundaries, v+tiny)
}

// tiny breaks ties so a value exactly on a boundary belongs to the
// right (upper) partition, matching the half-open interval convention.
const tiny = 1e-15
