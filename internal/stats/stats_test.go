package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if s.CI95() != 0 {
		t.Error("CI95 of empty sample nonzero")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.N != 1 || !approx(s.Mean, 3.5) || s.StdDev != 0 || !approx(s.Min, 3.5) || !approx(s.Max, 3.5) {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(s.Mean, 5) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// Sample sd with n−1: variance = 32/7
	if !approx(s.StdDev, math.Sqrt(32.0/7.0)) {
		t.Errorf("StdDev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 || s.N != 8 {
		t.Errorf("extrema wrong: %+v", s)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestCI95(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	want := 1.96 * s.StdDev / math.Sqrt(5)
	if !approx(s.CI95(), want) {
		t.Errorf("CI95 = %v, want %v", s.CI95(), want)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !approx(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
}

func TestMeanInts(t *testing.T) {
	if MeanInts(nil) != 0 {
		t.Error("MeanInts(nil) != 0")
	}
	if !approx(MeanInts([]int{1, 2}), 1.5) {
		t.Error("MeanInts wrong")
	}
}

func TestMaxInts(t *testing.T) {
	if MaxInts(nil) != 0 {
		t.Error("MaxInts(nil) != 0")
	}
	if MaxInts([]int{3, 9, 1}) != 9 {
		t.Error("MaxInts wrong")
	}
	if MaxInts([]int{-3, -9}) != -3 {
		t.Error("MaxInts negative wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {200, 5}, {10, 1.4},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); !approx(got, tc.want) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

// TestPercentileEdgeCases pins the conventions shared with
// obs.Histogram.Percentile: empty → 0, NaN p → 0 (this used to index
// with int(Floor(NaN)) and panic), p ≤ 0 → min, p ≥ 100 → max, and a
// single sample answers every p with itself.
func TestPercentileEdgeCases(t *testing.T) {
	single := []float64{7}
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"empty slice", []float64{}, 0, 0},
		{"nan p", []float64{1, 2, 3}, math.NaN(), 0},
		{"nan p empty", nil, math.NaN(), 0},
		{"single p0", single, 0, 7},
		{"single p50", single, 50, 7},
		{"single p100", single, 100, 7},
		{"single negative p", single, -10, 7},
		{"single p beyond 100", single, 200, 7},
		{"pair p100", []float64{1, 9}, 100, 9},
		{"pair p99 interpolates", []float64{0, 100}, 99, 99},
	}
	for _, tc := range cases {
		if got := Percentile(tc.xs, tc.p); !approx(got, tc.want) {
			t.Errorf("%s: Percentile(%v, %v) = %v, want %v", tc.name, tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

func TestRatio(t *testing.T) {
	if !approx(Ratio(6, 3), 2) {
		t.Error("Ratio wrong")
	}
	if !approx(Ratio(0, 0), 1) {
		t.Error("Ratio(0,0) != 1")
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Error("Ratio(1,0) not +Inf")
	}
}

// Property: mean lies within [min, max].
func TestQuickMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNearestRank pins the one latency-percentile rule (index ⌈p·n⌉−1)
// that replaced experiments' int(p·n) — one rank high whenever p·n is
// an integer — and disksim's int(p·n)−1 — one rank low whenever it is
// not.
func TestNearestRank(t *testing.T) {
	upTo := func(n int) []time.Duration { // n, n-1, …, 1: unsorted on purpose
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(n - i)
		}
		return xs
	}
	cases := []struct {
		name string
		xs   []time.Duration
		p    float64
		want time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"n=1", upTo(1), 0.99, 1},
		{"n=2 p50 is the smaller", upTo(2), 0.5, 1},
		{"n=5 p20", upTo(5), 0.2, 1},
		{"n=5 p100", upTo(5), 1, 5},
		{"n=10 p50", upTo(10), 0.5, 5},
		{"n=10 p999", upTo(10), 0.999, 10},
		{"n=100 p99 is not the maximum", upTo(100), 0.99, 99},
		{"n=100 p7 survives 0.07·100 > 7", upTo(100), 0.07, 7},
		{"n=150 p99 rounds up", upTo(150), 0.99, 149},
		{"p below the first rank", upTo(5), 0, 1},
	}
	for _, tc := range cases {
		if got := NearestRank(tc.xs, tc.p); got != tc.want {
			t.Errorf("%s: NearestRank(p=%v) = %d, want %d", tc.name, tc.p, got, tc.want)
		}
	}
	xs := []time.Duration{5, 1, 4, 2, 3}
	NearestRank(xs, 0.5)
	if !slices.Equal(xs, []time.Duration{5, 1, 4, 2, 3}) {
		t.Errorf("NearestRank mutated its input: %v", xs)
	}
}
