package alloc

import "decluster/internal/grid"

// FX is the field-wise exclusive-or method of Kim & Pramanik (SIGMOD
// 1988): bucket <i_1,…,i_k> goes to disk (bits(i_1) ⊕ … ⊕ bits(i_k))
// mod M, where bits(i) is the coordinate's binary representation.
//
// The paper under reproduction uses FX when the number of partitions
// per attribute exceeds the number of disks, and ExFX otherwise.
type FX struct {
	fold // every axis: value v → v
}

// NewFX constructs a field-wise XOR allocation of g over m disks.
func NewFX(g *grid.Grid, m int) (*FX, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	return &FX{newFold(g, m, true, func(_, v int, _ []int) int { return v })}, nil
}

// Name implements Method.
func (f *FX) Name() string { return "FX" }

// ExFX is the extended field-wise XOR method, used when attribute
// domains are narrower than the disk count: a plain XOR of b-bit fields
// can never reach disks ≥ 2^b, so each field is first widened to
// L = max(⌈log2 M⌉, max field width) bits by cyclic tiling of its bits,
// and then rotated by a per-field stagger so that identical coordinate
// values on different attributes do not cancel. The widened words are
// XORed and taken mod M.
//
// The source text of the reproduced paper names ExFX but does not
// reproduce Kim & Pramanik's exact extension schedule; the tiling +
// stagger construction here preserves the property the extension exists
// for — every attribute influences all ⌈log2 M⌉ disk-number bits even
// when its own domain is small. The stagger for field i is
// i·max(1, ⌊L/k⌋) bit positions, wrapped.
type ExFX struct {
	fold      // axis i: value v → v widened and rotated
	width int // L: widened field width in bits
}

// NewExFX constructs an extended field-wise XOR allocation of g over m
// disks.
func NewExFX(g *grid.Grid, m int) (*ExFX, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	width := 1
	for 1<<uint(width) < m {
		width++
	}
	bits := g.BitsPerAxis()
	for _, b := range bits {
		if b > width {
			width = b
		}
	}
	stag := width / g.K()
	if stag < 1 {
		stag = 1
	}
	f := newFold(g, m, true, func(i, v int, _ []int) int {
		return widen(v, bits[i], width, i*stag%width)
	})
	return &ExFX{fold: f, width: width}, nil
}

// Name implements Method.
func (f *ExFX) Name() string { return "ExFX" }

// Width returns the widened field width L in bits.
func (f *ExFX) Width() int { return f.width }

// widen tiles the b-bit value v cyclically to width bits and rotates
// it by stagger.
func widen(v, b, width, stagger int) int {
	out := 0
	for j := 0; j < width; j++ {
		bit := v >> uint(j%b) & 1
		out |= bit << uint((j+stagger)%width)
	}
	return out
}
