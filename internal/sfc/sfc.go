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
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

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
	x := make([]uint64, len(coords))
	for i, v := range coords {
		x[i] = uint64(v)
	}
	axesToTranspose(x, b)
	return morton(x, b), nil
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
//
// The table is built by descending the curve one bit level at a time in
// index order and numbering buckets as they are reached, so it costs
// O(B) time for B buckets — no per-bucket index and no sort. Subcubes
// outside the grid are never entered.
func RankTable(g *grid.Grid, kind Kind) ([]int, error) {
	b := g.CubeBits()
	if g.K()*b > maxIndexBits {
		return nil, fmt.Errorf("sfc: grid %v needs %d index bits; max %d", g, g.K()*b, maxIndexBits)
	}
	if kind != Morton && kind != Gray && kind != Hilbert {
		return nil, fmt.Errorf("sfc: unknown curve kind %v", kind)
	}
	k := g.K()
	d := &descent{
		gray:    kind != Morton,
		hilbert: kind == Hilbert,
		dims:    g.Dims(),
		strides: make([]int, k),
		lo:      make([]int, k),
		ids:     make(map[string]int32),
		ranks:   make([]int, g.Buckets()),
	}
	stride := 1
	for a := k - 1; a >= 0; a-- {
		d.strides[a] = stride
		stride *= d.dims[a]
	}
	identity := make([]uint8, k)
	for a := range identity {
		identity[a] = uint8(a)
	}
	d.node(b-1, 0, d.intern(identity, 0, 0))
	return d.ranks, nil
}

// descent numbers a grid's buckets in curve order. Each subcube visits
// its 2^K children in the order of the K-bit index digit h they take at
// this level; bit K−1−i of a digit or of a position mask belongs to
// position i, as the Morton interleave puts dimension 0 highest.
//
//   - Morton: position i is axis i, and its bit is h's.
//   - Gray: the digit is Gray-decoded, x = h ⊕ h>>1 ⊕ parity<<(K−1),
//     where the parity is the last bit of the level above's digit (0 at
//     the top).
//   - Hilbert: x is decoded as for Gray, then position i names axis
//     perm[i], its bit inverted where flip has the position's bit set.
//     The child inherits the permutation and flip mask after Skilling's
//     per-level steps (AxestoTranspose): for each position i in turn,
//     x_i = 1 inverts position 0, x_i = 0 swaps positions 0 and i.
//
// The state (perm, flip, parity) repeats across subcubes, so each one
// reached is numbered once and its children listed once, the first
// time a subcube in that state lies wholly in the grid on its lower
// halves. A subcube with an axis that has no room for its upper half
// forces that position to the lower half; the other positions' digit
// bits then count up in index order (a forced digit bit follows from
// the bit before it, so it never decides the order of two children).
type descent struct {
	gray, hilbert bool
	dims, strides []int
	lo            []int // low corner of the subcube being visited
	states        []curveState
	ids           map[string]int32 // state key → index in states
	key           []byte
	perm          []uint8 // move's scratch; intern keeps a copy
	ranks         []int
	next          int
}

// curveState is the curve's orientation on entering a subcube.
type curveState struct {
	perm         []uint8 // position → axis
	flip, parity uint64
	children     []move // in index order; nil until first needed
}

// move is one child of a subcube: the axes on which it takes the upper
// half, its bucket-number offset from the subcube's low corner for
// children of side 1, and its state.
type move struct {
	upper uint64
	off   int
	state int32
}

// node visits, in curve order, the children of side 2^lvl of the
// subcube at the low corner d.lo, whose row-major bucket number is off
// and whose state is s.
func (d *descent) node(lvl, off int, s int32) {
	half := 1 << uint(lvl)
	var room uint64 // axes with room for the upper half
	for a, lo := range d.lo {
		if lo+half < d.dims[a] {
			room |= 1 << uint(a)
		}
	}
	if room == 1<<uint(len(d.lo))-1 {
		children := d.children(s)
		if lvl == 0 {
			for _, mv := range children {
				d.ranks[off+mv.off] = d.next
				d.next++
			}
			return
		}
		for _, mv := range children {
			d.visit(lvl, off, mv)
		}
		return
	}
	st := d.states[s]
	top := uint(len(st.perm) - 1)
	var free uint64 // positions with room for the upper half
	for i, a := range st.perm {
		free |= room >> a & 1 << (top - uint(i))
	}
	// j runs over the subsets of free in ascending order.
	for j := uint64(0); ; j = (j - free) & free {
		mv := d.move(s, d.fillForced(st, j, free))
		if lvl == 0 {
			d.ranks[off+mv.off] = d.next
			d.next++
		} else {
			d.visit(lvl, off, mv)
		}
		if j == free {
			return
		}
	}
}

// visit descends into the child mv of the subcube at d.lo, whose
// children have side 2^lvl.
func (d *descent) visit(lvl, off int, mv move) {
	half := 1 << uint(lvl)
	for m := mv.upper; m != 0; m &= m - 1 {
		d.lo[bits.TrailingZeros64(m)] += half
	}
	d.node(lvl-1, off+mv.off*half, mv.state)
	for m := mv.upper; m != 0; m &= m - 1 {
		d.lo[bits.TrailingZeros64(m)] -= half
	}
}

// children lists state s's children in index order.
func (d *descent) children(s int32) []move {
	if d.states[s].children == nil {
		list := make([]move, 1<<uint(len(d.lo)))
		for h := range list {
			list[h] = d.move(s, uint64(h))
		}
		d.states[s].children = list
	}
	return d.states[s].children
}

// move returns the child with index digit h of a subcube in state s.
func (d *descent) move(s int32, h uint64) move {
	st := d.states[s]
	top := uint(len(st.perm) - 1)
	x := h
	if d.gray {
		x ^= h>>1 ^ st.parity<<top
	}
	var mv move
	for i, a := range st.perm {
		if (x^st.flip)>>(top-uint(i))&1 != 0 {
			mv.upper |= 1 << a
			mv.off += d.strides[a]
		}
	}
	perm, flip, parity := st.perm, st.flip, uint64(0)
	if d.gray {
		parity = h & 1
	}
	if d.hilbert {
		perm = append(d.perm[:0], st.perm...)
		d.perm = perm
		for i := range perm {
			bit := uint64(1) << (top - uint(i))
			if x&bit != 0 {
				flip ^= 1 << top // invert position 0
				continue
			}
			perm[0], perm[i] = perm[i], perm[0]
			if (flip>>top^flip>>(top-uint(i)))&1 != 0 {
				flip ^= 1<<top | bit
			}
		}
	}
	mv.state = d.intern(perm, flip, parity)
	return mv
}

// intern returns the number of the state (perm, flip, parity), adding
// it if it is new.
func (d *descent) intern(perm []uint8, flip, parity uint64) int32 {
	d.key = binary.LittleEndian.AppendUint64(append(d.key[:0], perm...), flip<<1|parity)
	if s, ok := d.ids[string(d.key)]; ok {
		return s
	}
	s := int32(len(d.states))
	d.ids[string(d.key)] = s
	d.states = append(d.states, curveState{perm: slices.Clone(perm), flip: flip, parity: parity})
	return s
}

// fillForced returns the digit of state st's child whose free positions
// carry j's bits and whose other positions take the lower half.
func (d *descent) fillForced(st curveState, j, free uint64) uint64 {
	h, prev := j, st.parity
	for p := len(st.perm) - 1; p >= 0; p-- {
		hb := h >> uint(p) & 1
		if free>>uint(p)&1 == 0 {
			hb = st.flip >> uint(p) & 1 // x = flip: the lower half
			if d.gray {
				hb ^= prev
			}
			h |= hb << uint(p)
		}
		prev = hb
	}
	return h
}
