// Package stats provides the small set of descriptive statistics the
// experiment harness reports: means, deviations, extrema, percentiles
// and normal-approximation confidence intervals.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n−1 denominator)
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. It returns the zero Summary when
// xs is empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f max=%.4f", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// CI95 returns the half-width of the 95%% normal-approximation
// confidence interval of the mean (1.96·sd/√n); 0 for samples of size
// ≤ 1.
func (s Summary) CI95() float64 {
	if s.N <= 1 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanInts is Mean over an integer sample.
func MeanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// MaxInts returns the maximum of xs (0 for an empty slice).
func MaxInts(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between order statistics. It returns 0 for an
// empty sample or a NaN p, and clamps p into range: p ≤ 0 yields the
// minimum, p ≥ 100 the maximum, and a single-sample percentile is that
// sample for every p. obs.Histogram.Percentile follows the same
// conventions, so registry summaries and experiment tables agree.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NearestRank returns the p-quantile (0 < p ≤ 1) of a latency sample by
// the nearest-rank rule: the ⌈p·n⌉-th smallest value, an actual
// observation — P50 of two samples is the smaller, P99 of a hundred is
// the 99th. It sorts a copy; an empty sample yields 0.
func NearestRank(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	// The epsilon keeps a product like 0.07·100 = 7.000000000000001 on
	// rank 7.
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Ratio returns a/b, or 1 when both are zero (by convention: "no worse
// than a zero optimum"), or +Inf when only b is zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}
