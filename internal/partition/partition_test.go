package partition

import (
	"math"
	"math/rand"
	"testing"

	"decluster/internal/datagen"
)

func TestEquiDepthValidation(t *testing.T) {
	if _, err := EquiDepth(nil, []int{4}); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := EquiDepth([][]float64{{0.5}}, nil); err == nil {
		t.Error("no dimensions accepted")
	}
	if _, err := EquiDepth([][]float64{{0.5, 0.5}}, []int{4}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := EquiDepth([][]float64{{1.5}}, []int{2}); err == nil {
		t.Error("out-of-range sample value accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < 2; pos++ {
			row := []float64{0.5, 0.5}
			row[pos] = v
			if _, err := EquiDepth([][]float64{{0.2, 0.2}, row}, []int{2, 2}); err == nil {
				t.Errorf("sample value %v accepted on attribute %d", v, pos)
			}
		}
	}
	if _, err := EquiDepth([][]float64{{0.5}}, []int{0}); err == nil {
		t.Error("zero partitions accepted")
	}
}

func TestEquiDepthUniformApproximatesEqualWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := make([][]float64, 10000)
	for i := range sample {
		sample[i] = []float64{rng.Float64()}
	}
	bounds, err := EquiDepth(sample, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.5, 0.75}
	for i, b := range bounds[0] {
		if b < want[i]-0.03 || b > want[i]+0.03 {
			t.Errorf("boundary %d = %v, want ≈ %v", i, b, want[i])
		}
	}
}

func TestEquiDepthBalancesSkew(t *testing.T) {
	recs := datagen.Zipf{K: 1, Seed: 3, S: 1.5, Buckets: 64}.Generate(8000)
	sample := make([][]float64, len(recs))
	for i, r := range recs {
		sample[i] = r.Values
	}
	bounds, err := EquiDepth(sample, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	// Count records per partition: must be within 2× of each other.
	counts := make([]int, 8)
	for _, row := range sample {
		counts[Locate(bounds[0], row[0])]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max > 2*min {
		t.Fatalf("equi-depth partitions unbalanced under skew: %v", counts)
	}
	// Skewed data: the first boundary sits far below equal-width 1/8.
	if bounds[0][0] >= 0.125 {
		t.Errorf("first boundary %v did not adapt to skew", bounds[0][0])
	}
}

func TestEquiDepthDuplicateMassErrors(t *testing.T) {
	sample := make([][]float64, 100)
	for i := range sample {
		sample[i] = []float64{0.5}
	}
	if _, err := EquiDepth(sample, []int{4}); err == nil {
		t.Error("all-duplicate axis accepted for 4 partitions")
	}
	// One partition is always fine.
	bounds, err := EquiDepth(sample, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds[0]) != 0 {
		t.Error("single partition has boundaries")
	}
}

func TestUniform(t *testing.T) {
	if Uniform(1) != nil {
		t.Error("Uniform(1) not nil")
	}
	got := Uniform(4)
	want := []float64{0.25, 0.5, 0.75}
	if len(got) != 3 {
		t.Fatalf("Uniform(4) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Uniform(4)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if err := Validate([][]float64{Uniform(8)}, []int{8}); err != nil {
		t.Errorf("Uniform(8) does not validate: %v", err)
	}
}

func TestValidate(t *testing.T) {
	good := [][]float64{{0.25, 0.5, 0.75}, {0.5}}
	if err := Validate(good, []int{4, 2}); err != nil {
		t.Errorf("valid boundaries rejected: %v", err)
	}
	if err := Validate(good, []int{4}); err == nil {
		t.Error("axis-count mismatch accepted")
	}
	if err := Validate([][]float64{{0.5, 0.25}}, []int{3}); err == nil {
		t.Error("unsorted boundaries accepted")
	}
	if err := Validate([][]float64{{0.0}}, []int{2}); err == nil {
		t.Error("boundary at 0 accepted")
	}
	if err := Validate([][]float64{{1.0}}, []int{2}); err == nil {
		t.Error("boundary at 1 accepted")
	}
	if err := Validate([][]float64{{0.5}}, []int{3}); err == nil {
		t.Error("wrong boundary count accepted")
	}
}

func TestLocate(t *testing.T) {
	bs := []float64{0.25, 0.5, 0.75}
	cases := []struct {
		v    float64
		want int
	}{
		{0.0, 0}, {0.24, 0}, {0.25, 1}, {0.3, 1}, {0.5, 2}, {0.74, 2}, {0.75, 3}, {0.99, 3},
	}
	for _, tc := range cases {
		if got := Locate(bs, tc.v); got != tc.want {
			t.Errorf("Locate(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if Locate(nil, 0.5) != 0 {
		t.Error("Locate with no boundaries != 0")
	}
}
