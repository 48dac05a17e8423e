// Package datagen produces the synthetic record populations the
// grid-file substrate is loaded with: uniform, Zipf-skewed, clustered
// (Gaussian mixture) and correlated multi-attribute distributions. All
// generators are deterministic under a caller-supplied seed.
//
// Records carry one normalized value per attribute in [0, 1); the
// grid-file maps each value to a partition by uniform interval
// partitioning of the attribute domain.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"decluster/internal/grid"
)

// Record is a multi-attribute record with normalized attribute values.
type Record struct {
	// ID is a unique sequence number within one generator run.
	ID int
	// Values holds one value per attribute, each in [0, 1).
	Values []float64
}

// Generator produces records with a fixed number of attributes.
type Generator interface {
	// Name identifies the distribution.
	Name() string
	// Attrs returns the number of attributes per record.
	Attrs() int
	// Generate produces n records deterministically.
	Generate(n int) []Record
}

// clamp keeps v inside [0, 1).
func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

// Uniform generates records with independently uniform attributes.
type Uniform struct {
	K    int
	Seed int64
}

// Name implements Generator.
func (u Uniform) Name() string { return "uniform" }

// Attrs implements Generator.
func (u Uniform) Attrs() int { return u.K }

// Generate implements Generator.
func (u Uniform) Generate(n int) []Record {
	rng := rand.New(rand.NewSource(u.Seed))
	out := newRecords(n, u.K)
	for i := range out {
		vals := out[i].Values
		for j := range vals {
			vals[j] = rng.Float64()
		}
	}
	return out
}

// newRecords returns n records with IDs 0…n−1 and k zero values each,
// cut from one slab: each record's Values is a 3-index slice of it, so
// an append to one record's Values copies rather than overwrite its
// neighbour's.
func newRecords(n, k int) []Record {
	out := make([]Record, n)
	slab := make([]float64, n*k)
	for i := range out {
		out[i] = Record{ID: i, Values: slab[i*k : (i+1)*k : (i+1)*k]}
	}
	return out
}

// Zipf generates records whose attribute values are skewed toward low
// values with a Zipf(s) distribution over Buckets quantiles — modelling
// attribute domains where a few values dominate (the marketing-survey
// and demographic workloads the paper's introduction motivates).
type Zipf struct {
	K       int
	Seed    int64
	S       float64 // skew exponent, must be > 1
	Buckets int     // number of quantiles to skew over, ≥ 1
}

// Name implements Generator.
func (z Zipf) Name() string { return fmt.Sprintf("zipf(s=%.2f)", z.S) }

// Attrs implements Generator.
func (z Zipf) Attrs() int { return z.K }

// Generate implements Generator.
func (z Zipf) Generate(n int) []Record {
	rng := rand.New(rand.NewSource(z.Seed))
	s := z.S
	if s <= 1 {
		s = 1.5
	}
	buckets := z.Buckets
	if buckets < 1 {
		buckets = 64
	}
	zipf := rand.NewZipf(rng, s, 1, uint64(buckets-1))
	out := newRecords(n, z.K)
	for i := range out {
		vals := out[i].Values
		for j := range vals {
			q := float64(zipf.Uint64())
			vals[j] = clamp((q + rng.Float64()) / float64(buckets))
		}
	}
	return out
}

// Clustered generates records from a mixture of isotropic Gaussian
// clusters with uniformly placed centers — modelling the hot-spot
// populations of image-analysis and scientific workloads.
type Clustered struct {
	K        int
	Seed     int64
	Clusters int     // number of mixture components, ≥ 1
	Sigma    float64 // cluster standard deviation, default 0.05
}

// Name implements Generator.
func (c Clustered) Name() string { return fmt.Sprintf("clustered(%d)", c.Clusters) }

// Attrs implements Generator.
func (c Clustered) Attrs() int { return c.K }

// Generate implements Generator.
func (c Clustered) Generate(n int) []Record {
	rng := rand.New(rand.NewSource(c.Seed))
	clusters := c.Clusters
	if clusters < 1 {
		clusters = 4
	}
	sigma := c.Sigma
	if sigma <= 0 {
		sigma = 0.05
	}
	centers := make([][]float64, clusters)
	for i := range centers {
		centers[i] = make([]float64, c.K)
		for j := range centers[i] {
			centers[i][j] = rng.Float64()
		}
	}
	out := newRecords(n, c.K)
	for i := range out {
		center := centers[rng.Intn(clusters)]
		vals := out[i].Values
		for j := range vals {
			vals[j] = clamp(center[j] + rng.NormFloat64()*sigma)
		}
	}
	return out
}

// Correlated generates records whose attribute 0 is uniform and every
// later attribute tracks attribute 0 with additive noise — modelling
// functionally related attributes (e.g. salary vs. tax paid), the case
// where grid cells along the diagonal are heavily populated.
type Correlated struct {
	K     int
	Seed  int64
	Noise float64 // noise amplitude, default 0.1
}

// Name implements Generator.
func (c Correlated) Name() string { return fmt.Sprintf("correlated(%.2f)", c.noise()) }

func (c Correlated) noise() float64 {
	if c.Noise <= 0 {
		return 0.1
	}
	return c.Noise
}

// Attrs implements Generator.
func (c Correlated) Attrs() int { return c.K }

// Generate implements Generator.
func (c Correlated) Generate(n int) []Record {
	rng := rand.New(rand.NewSource(c.Seed))
	noise := c.noise()
	out := newRecords(n, c.K)
	for i := range out {
		vals := out[i].Values
		vals[0] = rng.Float64()
		for j := 1; j < c.K; j++ {
			vals[j] = clamp(vals[0] + (rng.Float64()*2-1)*noise)
		}
	}
	return out
}

// Cell maps a record's normalized values to the grid cell containing
// them under uniform interval partitioning: value v on axis i falls in
// partition ⌊v·d_i⌋. It returns an error when the record's arity does
// not match the grid.
func Cell(g *grid.Grid, r Record) (grid.Coord, error) {
	if len(r.Values) != g.K() {
		return nil, fmt.Errorf("datagen: record has %d attributes; grid %v has %d", len(r.Values), g, g.K())
	}
	c := make(grid.Coord, g.K())
	for i, v := range r.Values {
		if !(v >= 0 && v < 1) { // in this form NaN fails too
			return nil, fmt.Errorf("datagen: attribute %d value %v outside [0,1)", i, v)
		}
		c[i] = int(v * float64(g.Dim(i)))
		if c[i] >= g.Dim(i) { // guard against FP edge at v→1
			c[i] = g.Dim(i) - 1
		}
	}
	return c, nil
}
