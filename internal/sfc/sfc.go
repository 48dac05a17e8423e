// Package sfc implements the space-filling curves the declustering
// methods deal disks along: the Hilbert curve HCAM uses (Faloutsos &
// Bhagwat 1993), and the Z-order (Morton) and binary-reflected
// Gray-code curves HCAM's authors compared it against — so the library
// can reproduce the ablation behind HCAM's design choice: Hilbert's
// stricter clustering (Jagadish 1990) is what buys its small-query
// performance.
//
// Every curve orders the cells of a 2^b × … × 2^b hypercube. Morton
// interleaves coordinate bits directly; the Gray curve visits cells in
// the order of the binary-reflected Gray code over the interleaved
// bits, so consecutive cells differ in exactly one interleaved bit; the
// Hilbert curve interleaves Skilling's "transposed" index ("Programming
// the Hilbert curve", AIP Conf. Proc. 707, 2004), so consecutive cells
// are neighbours in space.
package sfc

import (
	"fmt"

	"decluster/internal/grid"
)

// maxIndexBits bounds n·b so indexes fit in int64.
const maxIndexBits = 63

// validate checks curve parameters against coords.
func validate(coords []int, n, b int) error {
	if n < 1 || b < 1 {
		return fmt.Errorf("sfc: need n ≥ 1 dims and b ≥ 1 bits, got %d/%d", n, b)
	}
	if n*b > maxIndexBits {
		return fmt.Errorf("sfc: index space n·b = %d exceeds %d bits", n*b, maxIndexBits)
	}
	if len(coords) != n {
		return fmt.Errorf("sfc: %d coordinates for %d dimensions", len(coords), n)
	}
	side := 1 << uint(b)
	for i, v := range coords {
		if v < 0 || v >= side {
			return fmt.Errorf("sfc: coordinate %d = %d outside [0,%d)", i, v, side)
		}
	}
	return nil
}

// validateIndex checks a curve shape and a position along it.
func validateIndex(idx int64, n, b int) error {
	if n < 1 || b < 1 || n*b > maxIndexBits {
		return fmt.Errorf("sfc: invalid curve shape n=%d b=%d", n, b)
	}
	if idx < 0 || uint64(idx) >= 1<<uint(n*b) { // unsigned: 1<<63 overflows int64
		return fmt.Errorf("sfc: index %d out of [0,%d)", idx, uint64(1)<<uint(n*b))
	}
	return nil
}

// MortonIndex returns the Z-order index of the point: coordinate bits
// interleaved most-significant-first, dimension 0 contributing the
// higher bit at each level.
func MortonIndex(coords []int, b int) (int64, error) {
	if err := validate(coords, len(coords), b); err != nil {
		return 0, err
	}
	return morton(coords, b), nil
}

// morton is MortonIndex for coordinates already known to be valid.
func morton[T int | uint64](coords []T, b int) int64 {
	var idx int64
	for bit := b - 1; bit >= 0; bit-- {
		for _, v := range coords {
			idx = idx<<1 | int64(v>>uint(bit)&1)
		}
	}
	return idx
}

// unmorton inverts morton for a valid index, writing into x.
func unmorton[T int | uint64](idx int64, b int, x []T) {
	clear(x)
	pos := len(x)*b - 1
	for bit := b - 1; bit >= 0; bit-- {
		for i := range x {
			x[i] |= T(idx>>uint(pos)&1) << uint(bit)
			pos--
		}
	}
}

// MortonCoords inverts MortonIndex, writing into dst when it has
// length n.
func MortonCoords(idx int64, n, b int, dst []int) ([]int, error) {
	if err := validateIndex(idx, n, b); err != nil {
		return nil, err
	}
	if len(dst) != n {
		dst = make([]int, n)
	}
	unmorton(idx, b, dst)
	return dst, nil
}

// gray returns the binary-reflected Gray code of v.
func gray(v int64) int64 { return v ^ (v >> 1) }

// grayInverse inverts the binary-reflected Gray code.
func grayInverse(gv int64) int64 {
	v := gv
	for shift := int64(1); shift < 64; shift <<= 1 {
		v ^= v >> uint(shift)
	}
	return v
}

// GrayIndex returns the point's rank along the Gray-code curve: the
// position whose Gray code equals the point's interleaved bits.
// Consecutive ranks differ in exactly one interleaved bit.
func GrayIndex(coords []int, b int) (int64, error) {
	m, err := MortonIndex(coords, b)
	if err != nil {
		return 0, err
	}
	return grayInverse(m), nil
}

// GrayCoords inverts GrayIndex.
func GrayCoords(idx int64, n, b int, dst []int) ([]int, error) {
	if err := validateIndex(idx, n, b); err != nil {
		return nil, err
	}
	return MortonCoords(gray(idx), n, b, dst)
}

// axesToTranspose converts coordinates (in-place) to the transposed
// Hilbert index representation. Skilling 2004, AxestoTranspose.
func axesToTranspose(x []uint64, b int) {
	n := len(x)
	m := uint64(1) << uint(b-1)
	// Inverse undo of the excess work transposeToAxes performs.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
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
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint64
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes converts a transposed Hilbert index (in-place) back
// to coordinates. Skilling 2004, TransposetoAxes.
func transposeToAxes(x []uint64, b int) {
	nd := len(x)
	n := uint64(2) << uint(b-1)
	// Gray decode by H ^ (H/2).
	t := x[nd-1] >> 1
	for i := nd - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint64(2); q != n; q <<= 1 {
		p := q - 1
		for i := nd - 1; i >= 0; i-- {
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

// HilbertIndex returns the point's position along the Hilbert curve
// over the 2^b × … × 2^b hypercube: its transposed index, interleaved
// as Morton interleaves coordinates.
func HilbertIndex(coords []int, b int) (int64, error) {
	if err := validate(coords, len(coords), b); err != nil {
		return 0, err
	}
	return hilbert(coords, b, make([]uint64, len(coords))), nil
}

// hilbert is HilbertIndex for coordinates already known to be valid,
// with the caller's scratch x (len n) in place of a per-call slice.
func hilbert(coords []int, b int, x []uint64) int64 {
	for i, v := range coords {
		x[i] = uint64(v)
	}
	axesToTranspose(x, b)
	return morton(x, b)
}

// HilbertCoords inverts HilbertIndex, writing into dst when it has
// length n.
func HilbertCoords(idx int64, n, b int, dst []int) ([]int, error) {
	if err := validateIndex(idx, n, b); err != nil {
		return nil, err
	}
	x := make([]uint64, n)
	unmorton(idx, b, x)
	transposeToAxes(x, b)
	if len(dst) != n {
		dst = make([]int, n)
	}
	for i, v := range x {
		dst[i] = int(v)
	}
	return dst, nil
}

// Kind selects a curve family.
type Kind int

const (
	// Morton is the Z-order curve.
	Morton Kind = iota
	// Gray is the binary-reflected Gray-code curve.
	Gray
	// Hilbert is the Hilbert curve.
	Hilbert
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Morton:
		return "morton"
	case Gray:
		return "gray"
	case Hilbert:
		return "hilbert"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// RankTable computes, for every bucket of g (row-major bucket number),
// its rank in the chosen curve's ordering restricted to the grid: the
// bucket the curve of the smallest enclosing hypercube visits first has
// rank 0, and so on. For grids that exactly fill the hypercube the rank
// equals the curve index.
func RankTable(g *grid.Grid, kind Kind) ([]int, error) {
	b := g.CubeBits()
	if g.K()*b > maxIndexBits {
		return nil, fmt.Errorf("sfc: grid %v needs %d index bits; max %d", g, g.K()*b, maxIndexBits)
	}
	switch kind {
	case Morton:
		return g.CurveRanks(func(coords []int) int64 { return morton(coords, b) }), nil
	case Gray:
		return g.CurveRanks(func(coords []int) int64 { return grayInverse(morton(coords, b)) }), nil
	case Hilbert:
		x := make([]uint64, g.K())
		return g.CurveRanks(func(coords []int) int64 { return hilbert(coords, b, x) }), nil
	default:
		return nil, fmt.Errorf("sfc: unknown curve kind %v", kind)
	}
}
