// Package hilbert implements the d-dimensional Hilbert space-filling
// curve. The curve visits every point of a 2^b × … × 2^b hypercube
// exactly once without crossing itself, and nearby points along the
// curve are nearby in space — the clustering property (Jagadish 1990)
// that the HCAM declustering method (Faloutsos & Bhagwat 1993) exploits.
//
// The implementation follows John Skilling, "Programming the Hilbert
// curve" (AIP Conf. Proc. 707, 2004): coordinates are converted to and
// from a "transposed" index representation with O(b·n) bit operations,
// then packed into a single integer by bit interleaving.
package hilbert

import (
	"fmt"

	"decluster/internal/grid"
)

// Curve is a Hilbert curve over an n-dimensional hypercube with 2^b
// points per side. The zero value is not usable; construct with New.
type Curve struct {
	n int // dimensions
	b int // bits per dimension
}

// New constructs a Hilbert curve over n dimensions with b bits per
// dimension. The total index space n·b must fit in 63 bits.
func New(n, b int) (*Curve, error) {
	if n < 1 {
		return nil, fmt.Errorf("hilbert: need n ≥ 1 dimensions, got %d", n)
	}
	if b < 1 {
		return nil, fmt.Errorf("hilbert: need b ≥ 1 bits, got %d", b)
	}
	if n*b > 63 {
		return nil, fmt.Errorf("hilbert: index space n·b = %d exceeds 63 bits", n*b)
	}
	return &Curve{n: n, b: b}, nil
}

// MustNew is New, panicking on error.
func MustNew(n, b int) *Curve {
	c, err := New(n, b)
	if err != nil {
		panic(err)
	}
	return c
}

// Dims returns the number of dimensions.
func (c *Curve) Dims() int { return c.n }

// Bits returns the bits per dimension.
func (c *Curve) Bits() int { return c.b }

// Side returns the hypercube side length 2^b.
func (c *Curve) Side() int { return 1 << uint(c.b) }

// Points returns the total number of points on the curve, 2^(n·b).
func (c *Curve) Points() int64 { return 1 << uint(c.n*c.b) }

// axesToTranspose converts coordinates (in-place) to the transposed
// Hilbert index representation. Skilling 2004, AxestoTranspose.
func (c *Curve) axesToTranspose(x []uint64) {
	m := uint64(1) << uint(c.b-1)
	// Inverse undo of the excess work transposeToAxes performs.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < c.n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < c.n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint64
	for q := m; q > 1; q >>= 1 {
		if x[c.n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < c.n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes converts a transposed Hilbert index (in-place) back
// to coordinates. Skilling 2004, TransposetoAxes.
func (c *Curve) transposeToAxes(x []uint64) {
	n := uint64(2) << uint(c.b-1)
	// Gray decode by H ^ (H/2).
	t := x[c.n-1] >> 1
	for i := c.n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint64(2); q != n; q <<= 1 {
		p := q - 1
		for i := c.n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleave packs the transposed representation into a single index:
// the most significant index bit is bit b-1 of x[0], then bit b-1 of
// x[1], …, descending through bit positions.
func (c *Curve) interleave(x []uint64) int64 {
	var idx int64
	for bit := c.b - 1; bit >= 0; bit-- {
		for i := 0; i < c.n; i++ {
			idx = idx<<1 | int64(x[i]>>uint(bit)&1)
		}
	}
	return idx
}

// deinterleave unpacks an index into the transposed representation.
func (c *Curve) deinterleave(idx int64, x []uint64) {
	for i := range x {
		x[i] = 0
	}
	pos := c.n*c.b - 1
	for bit := c.b - 1; bit >= 0; bit-- {
		for i := 0; i < c.n; i++ {
			x[i] |= uint64(idx>>uint(pos)&1) << uint(bit)
			pos--
		}
	}
}

// Index returns the position of the point along the curve, in
// [0, 2^(n·b)). It returns an error if the coordinate count or any
// coordinate value is out of range.
func (c *Curve) Index(coords []int) (int64, error) {
	if len(coords) != c.n {
		return 0, fmt.Errorf("hilbert: %d coordinates for %d-dimensional curve", len(coords), c.n)
	}
	side := c.Side()
	for i, v := range coords {
		if v < 0 || v >= side {
			return 0, fmt.Errorf("hilbert: coordinate %d = %d out of [0,%d)", i, v, side)
		}
	}
	return c.index(coords, make([]uint64, c.n)), nil
}

// index is Index for coordinates already known to lie on the curve,
// with the caller's scratch x (len n) in place of a per-call slice.
func (c *Curve) index(coords []int, x []uint64) int64 {
	for i, v := range coords {
		x[i] = uint64(v)
	}
	c.axesToTranspose(x)
	return c.interleave(x)
}

// MustIndex is Index, panicking on error.
func (c *Curve) MustIndex(coords []int) int64 {
	idx, err := c.Index(coords)
	if err != nil {
		panic(err)
	}
	return idx
}

// Coords returns the point at position idx along the curve, writing
// into dst if it has length n (allocating otherwise).
func (c *Curve) Coords(idx int64, dst []int) ([]int, error) {
	if idx < 0 || idx >= c.Points() {
		return nil, fmt.Errorf("hilbert: index %d out of [0,%d)", idx, c.Points())
	}
	x := make([]uint64, c.n)
	c.deinterleave(idx, x)
	c.transposeToAxes(x)
	if len(dst) != c.n {
		dst = make([]int, c.n)
	}
	for i, v := range x {
		dst[i] = int(v)
	}
	return dst, nil
}

// ForGrid returns the smallest curve that encloses g: dimensions equal
// to g.K() and enough bits for the largest axis.
func ForGrid(g *grid.Grid) (*Curve, error) {
	return New(g.K(), g.CubeBits())
}

// RankTable computes, for every bucket of g (indexed by row-major
// bucket number), its rank in the Hilbert-curve ordering restricted to
// the grid: the bucket visited first by the curve has rank 0, and so
// on. For grids that exactly fill the curve's hypercube the rank equals
// the curve index. This is the ordering HCAM assigns disks along.
func RankTable(g *grid.Grid) ([]int, error) {
	c, err := ForGrid(g)
	if err != nil {
		return nil, err
	}
	x := make([]uint64, c.n)
	return g.CurveRanks(func(coords []int) int64 { return c.index(coords, x) }), nil
}
