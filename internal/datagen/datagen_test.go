package datagen

import (
	"math"
	"testing"

	"decluster/internal/grid"
)

func checkRecords(t *testing.T, recs []Record, n, k int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.ID != i {
			t.Fatalf("record %d has ID %d", i, r.ID)
		}
		if len(r.Values) != k {
			t.Fatalf("record %d has %d attrs, want %d", i, len(r.Values), k)
		}
		for j, v := range r.Values {
			if v < 0 || v >= 1 || math.IsNaN(v) {
				t.Fatalf("record %d attr %d = %v outside [0,1)", i, j, v)
			}
		}
	}
}

func TestUniform(t *testing.T) {
	g := Uniform{K: 3, Seed: 1}
	recs := g.Generate(500)
	checkRecords(t, recs, 500, 3)
	if g.Name() != "uniform" || g.Attrs() != 3 {
		t.Error("metadata wrong")
	}
	// Mean of uniform values ≈ 0.5.
	sum := 0.0
	for _, r := range recs {
		sum += r.Values[0]
	}
	mean := sum / 500
	if mean < 0.4 || mean > 0.6 {
		t.Errorf("uniform mean %v far from 0.5", mean)
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform{K: 2, Seed: 7}.Generate(50)
	b := Uniform{K: 2, Seed: 7}.Generate(50)
	c := Uniform{K: 2, Seed: 8}.Generate(50)
	same, diff := true, false
	for i := range a {
		if a[i].Values[0] != b[i].Values[0] {
			same = false
		}
		if a[i].Values[0] != c[i].Values[0] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed diverged")
	}
	if !diff {
		t.Error("different seeds agree")
	}
}

func TestZipfSkew(t *testing.T) {
	g := Zipf{K: 2, Seed: 1, S: 2.0, Buckets: 32}
	recs := g.Generate(2000)
	checkRecords(t, recs, 2000, 2)
	// Strong skew: a majority of values must fall in the lowest quantile
	// band [0, 1/32).
	low := 0
	for _, r := range recs {
		if r.Values[0] < 1.0/32 {
			low++
		}
	}
	if low < 1000 {
		t.Errorf("only %d/2000 values in the hot quantile; zipf not skewed", low)
	}
	if g.Attrs() != 2 || g.Name() == "" {
		t.Error("metadata wrong")
	}
}

func TestZipfDefaults(t *testing.T) {
	// Invalid parameters fall back to sane defaults rather than panic.
	recs := Zipf{K: 1, Seed: 1}.Generate(100)
	checkRecords(t, recs, 100, 1)
}

func TestClustered(t *testing.T) {
	g := Clustered{K: 2, Seed: 3, Clusters: 2, Sigma: 0.01}
	recs := g.Generate(1000)
	checkRecords(t, recs, 1000, 2)
	// With σ=0.01 and 2 clusters, the population concentrates: count
	// distinct cells at an 8×8 resolution — should be far fewer than a
	// uniform population would occupy.
	gr := grid.MustNew(8, 8)
	cells := make(map[int]bool)
	for _, r := range recs {
		c, err := Cell(gr, r)
		if err != nil {
			t.Fatal(err)
		}
		cells[gr.Linearize(c)] = true
	}
	if len(cells) > 20 {
		t.Errorf("clustered population touches %d/64 cells; not clustered", len(cells))
	}
}

func TestClusteredDefaults(t *testing.T) {
	recs := Clustered{K: 2, Seed: 1}.Generate(100)
	checkRecords(t, recs, 100, 2)
}

func TestCorrelated(t *testing.T) {
	g := Correlated{K: 2, Seed: 5, Noise: 0.05}
	recs := g.Generate(1000)
	checkRecords(t, recs, 1000, 2)
	// Attribute 1 must track attribute 0 within the noise bound.
	for _, r := range recs {
		if math.Abs(r.Values[1]-r.Values[0]) > 0.05+1e-9 {
			// Clamping at the boundary can stretch the distance only
			// when values near 0 or 1.
			if r.Values[0] > 0.06 && r.Values[0] < 0.94 {
				t.Fatalf("record %d: attr1 %v strays from attr0 %v", r.ID, r.Values[1], r.Values[0])
			}
		}
	}
}

func TestCorrelatedDefaults(t *testing.T) {
	g := Correlated{K: 3, Seed: 1}
	recs := g.Generate(10)
	checkRecords(t, recs, 10, 3)
	if g.Name() != "correlated(0.10)" {
		t.Errorf("Name = %q", g.Name())
	}
}

func TestCell(t *testing.T) {
	g := grid.MustNew(4, 8)
	cases := []struct {
		vals []float64
		want grid.Coord
	}{
		{[]float64{0, 0}, grid.Coord{0, 0}},
		{[]float64{0.25, 0.125}, grid.Coord{1, 1}},
		{[]float64{0.999999, 0.999999}, grid.Coord{3, 7}},
		{[]float64{0.5, 0.5}, grid.Coord{2, 4}},
	}
	for _, tc := range cases {
		got, err := Cell(g, Record{Values: tc.vals})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(tc.want) {
			t.Errorf("Cell(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
}

func TestCellErrors(t *testing.T) {
	g := grid.MustNew(4, 4)
	if _, err := Cell(g, Record{Values: []float64{0.5}}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := Cell(g, Record{Values: []float64{1.0, 0.5}}); err == nil {
		t.Error("value 1.0 accepted")
	}
	if _, err := Cell(g, Record{Values: []float64{-0.1, 0.5}}); err == nil {
		t.Error("negative value accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < 2; pos++ {
			values := []float64{0.5, 0.5}
			values[pos] = v
			if _, err := Cell(g, Record{Values: values}); err == nil {
				t.Errorf("value %v accepted on attribute %d", v, pos)
			}
		}
	}
}

func TestCellCoversAllPartitions(t *testing.T) {
	g := grid.MustNew(4, 4)
	recs := Uniform{K: 2, Seed: 11}.Generate(2000)
	seen := make(map[int]bool)
	for _, r := range recs {
		c, err := Cell(g, r)
		if err != nil {
			t.Fatal(err)
		}
		seen[g.Linearize(c)] = true
	}
	if len(seen) != 16 {
		t.Errorf("uniform records cover %d/16 cells", len(seen))
	}
}

// Every generator cuts its records' values from one slab, yet an append
// to one record's Values leaves its neighbour's values as they were.
func TestGenerateValuesDoNotAlias(t *testing.T) {
	for _, g := range []Generator{
		Uniform{K: 3, Seed: 1},
		Zipf{K: 3, Seed: 1, S: 1.5},
		Clustered{K: 3, Seed: 1, Clusters: 2},
		Correlated{K: 3, Seed: 1},
	} {
		recs := g.Generate(4)
		next := append([]float64(nil), recs[2].Values...)
		_ = append(recs[1].Values, 0.5)
		for j, v := range recs[2].Values {
			if v != next[j] {
				t.Errorf("%s: appending to record 1's values changed record 2's value %d from %v to %v", g.Name(), j, next[j], v)
			}
		}
	}
}
