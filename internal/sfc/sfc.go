// Package sfc implements the space-filling curves HCAM's authors
// compared Hilbert against — the Z-order (Morton) curve and the
// binary-reflected Gray-code curve — so the library can reproduce the
// ablation behind HCAM's design choice: Hilbert's stricter clustering
// is what buys its small-query performance.
//
// Both curves order the cells of a 2^b × … × 2^b hypercube. Morton
// interleaves coordinate bits directly; the Gray curve visits cells in
// the order of the binary-reflected Gray code over the interleaved
// bits, so consecutive cells differ in exactly one interleaved bit.
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
func morton(coords []int, b int) int64 {
	var idx int64
	for bit := b - 1; bit >= 0; bit-- {
		for _, v := range coords {
			idx = idx<<1 | int64(v>>uint(bit)&1)
		}
	}
	return idx
}

// MortonCoords inverts MortonIndex, writing into dst when it has
// length n.
func MortonCoords(idx int64, n, b int, dst []int) ([]int, error) {
	if n < 1 || b < 1 || n*b > maxIndexBits {
		return nil, fmt.Errorf("sfc: invalid curve shape n=%d b=%d", n, b)
	}
	if idx < 0 || idx >= 1<<uint(n*b) {
		return nil, fmt.Errorf("sfc: index %d out of [0,%d)", idx, int64(1)<<uint(n*b))
	}
	if len(dst) != n {
		dst = make([]int, n)
	}
	for i := range dst {
		dst[i] = 0
	}
	pos := n*b - 1
	for bit := b - 1; bit >= 0; bit-- {
		for i := 0; i < n; i++ {
			dst[i] |= int(idx>>uint(pos)&1) << uint(bit)
			pos--
		}
	}
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
	if n < 1 || b < 1 || n*b > maxIndexBits {
		return nil, fmt.Errorf("sfc: invalid curve shape n=%d b=%d", n, b)
	}
	if idx < 0 || idx >= 1<<uint(n*b) {
		return nil, fmt.Errorf("sfc: index %d out of [0,%d)", idx, int64(1)<<uint(n*b))
	}
	return MortonCoords(gray(idx), n, b, dst)
}

// Kind selects a curve family.
type Kind int

const (
	// Morton is the Z-order curve.
	Morton Kind = iota
	// Gray is the binary-reflected Gray-code curve.
	Gray
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Morton:
		return "morton"
	case Gray:
		return "gray"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// RankTable computes, for every bucket of g (row-major bucket number),
// its rank in the chosen curve's ordering restricted to the grid —
// the analogue of hilbert.RankTable for the ablation curves.
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
	default:
		return nil, fmt.Errorf("sfc: unknown curve kind %v", kind)
	}
}
