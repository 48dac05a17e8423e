package alloc

import (
	"fmt"
	"math/bits"

	"decluster/internal/ecc"
	"decluster/internal/gf2"
	"decluster/internal/grid"
)

// ECC is the error-correcting-code method of Faloutsos & Metaxas (IEEE
// ToC 1991). It requires every attribute domain to have a power-of-two
// number of partitions. A bucket's coordinate bits are concatenated
// into an n-bit word x and the bucket goes to disk H·x, the word's
// syndrome under the parity-check matrix H of a binary code. Buckets on
// the same disk form a coset, so the code's minimum distance 3
// guarantees any two buckets on one disk differ in at least 3
// coordinate bits.
//
// The construction is exact for M = 2^r disks. For other disk counts —
// which the reproduced paper's disk sweeps include — the code is built
// with r = ⌈log2 M⌉ parity bits and syndromes are folded onto disks by
// mod M, trading some balance for applicability, as the paper's
// experiments require ECC lines at arbitrary M.
//
// Bit layout: the word interleaves attribute bits by significance —
// the least significant bit of every attribute first, then the next
// level, and so on. Combined with the parity-check columns cycling
// through distinct nonzero vectors, grid-adjacent buckets (which differ
// in low-order bits) land on different disks.
//
// The syndrome is linear in the word, and the word is the XOR of each
// axis's bits placed alone, so the allocation keeps one syndrome per
// axis value and a bucket's disk is the XOR of its K axis syndromes,
// mod M.
type ECC struct {
	fold   // axis i: value v → syndrome of v's bits alone
	code   *ecc.Code
	layout []bitRef // word bit position → (axis, bit level)
}

type bitRef struct {
	axis  int
	level int
}

// NewECC constructs an error-correcting-code allocation of g over m
// disks, building a shortened-Hamming parity-check matrix with
// r = ⌈log2 m⌉ parity bits; for non-power-of-two m the 2^r syndromes
// fold onto disks by mod m. It returns an error unless every grid
// dimension is a power of two and m ≥ 2.
func NewECC(g *grid.Grid, m int) (*ECC, error) {
	layout, err := eccLayout(g, m)
	if err != nil {
		return nil, err
	}
	r := 1
	for 1<<uint(r) < m {
		r++
	}
	code, err := ecc.NewShortenedHamming(len(layout), r)
	if err != nil {
		return nil, err
	}
	return newECC(g, m, code, layout), nil
}

// NewECCWithCode constructs an ECC allocation from a caller-supplied
// code (e.g. one transcribed from published parity-check tables). The
// code's length must equal the total coordinate bits of g and its
// syndrome count must be at least m.
func NewECCWithCode(g *grid.Grid, m int, code *ecc.Code) (*ECC, error) {
	layout, err := eccLayout(g, m)
	if err != nil {
		return nil, err
	}
	if code.Length() != len(layout) {
		return nil, fmt.Errorf("alloc: code length %d != grid coordinate bits %d", code.Length(), len(layout))
	}
	if code.Syndromes() < m {
		return nil, fmt.Errorf("alloc: code has %d syndromes; need ≥ %d disks", code.Syndromes(), m)
	}
	return newECC(g, m, code, layout), nil
}

// eccLayout checks that ECC applies to g over m disks and returns the
// word's bit layout: bit levels least significant first, axes in order
// within a level.
func eccLayout(g *grid.Grid, m int) ([]bitRef, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	if m < 2 {
		return nil, fmt.Errorf("alloc: ECC needs at least 2 disks, got %d", m)
	}
	axisBits := make([]int, g.K())
	n := 0
	maxBits := 0
	for i := 0; i < g.K(); i++ {
		b, err := bitsExact(g.Dim(i))
		if err != nil {
			return nil, fmt.Errorf("alloc: ECC grid axis %d: %w", i, err)
		}
		axisBits[i] = b
		n += b
		if b > maxBits {
			maxBits = b
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("alloc: ECC on a single-bucket grid is trivial; need ≥ 2 buckets")
	}
	if n > gf2.MaxBits {
		return nil, fmt.Errorf("alloc: ECC word needs %d bits; max %d", n, gf2.MaxBits)
	}
	layout := make([]bitRef, 0, n)
	for level := 0; level < maxBits; level++ {
		for axis := 0; axis < g.K(); axis++ {
			if level < axisBits[axis] {
				layout = append(layout, bitRef{axis: axis, level: level})
			}
		}
	}
	return layout, nil
}

// newECC builds the per-axis syndrome tables of code over layout. A
// value's syndrome is that of the value without its lowest set bit,
// XOR the parity-check column of that bit's word position.
func newECC(g *grid.Grid, m int, code *ecc.Code, layout []bitRef) *ECC {
	cols := make([][]int, g.K()) // per axis: bit level → parity-check column
	for pos, ref := range layout {
		cols[ref.axis] = append(cols[ref.axis], code.Syndrome(gf2.Vec(1)<<uint(pos)))
	}
	f := newFold(g, m, true, func(i, v int, t []int) int {
		if v == 0 {
			return 0
		}
		return t[v&(v-1)] ^ cols[i][bits.TrailingZeros(uint(v))]
	})
	return &ECC{fold: f, code: code, layout: layout}
}

// Name implements Method.
func (e *ECC) Name() string { return "ECC" }

// Code returns the underlying binary code.
func (e *ECC) Code() *ecc.Code { return e.code }

// BitPositions returns the word bit positions that carry coordinate
// bits of the given axis, in increasing significance.
func (e *ECC) BitPositions(axis int) []int {
	var out []int
	for pos, ref := range e.layout {
		if ref.axis == axis {
			out = append(out, pos)
		}
	}
	return out
}

// Word packs a coordinate into the allocation's bit layout.
func (e *ECC) Word(c grid.Coord) gf2.Vec {
	var x gf2.Vec
	for pos, ref := range e.layout {
		x |= gf2.Vec(c[ref.axis]>>uint(ref.level)&1) << uint(pos)
	}
	return x
}
