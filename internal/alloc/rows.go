package alloc

import (
	"math"

	"decluster/internal/grid"
)

// EachRow calls fn once per row of m's grid — the buckets that share
// every coordinate but the last — in row-major order: c is the row's
// first bucket (its last coordinate 0) and row[j] is the disk of the
// bucket j steps along the last axis from c, exactly m.DiskOf of that
// bucket. c and row are reused between calls; fn must copy what it
// keeps and must not write c.
//
// It is the allocation a row at a time, for callers that read all of
// it: GDM steps its sum by the last coefficient and wraps at M; FX,
// ExFX, ECC and the rank deals reduce a 32-bit value per bucket; the
// outer coordinates are combined once per row, not per bucket. Any
// other method falls back to DiskOf per bucket.
func EachRow(m Method, fn func(c grid.Coord, row []int)) {
	g := m.Grid()
	last := g.K() - 1
	fill := rowFuncOf(m)
	c := make(grid.Coord, last+1)
	row := make([]int, g.Dim(last))
	for {
		fill(c, row)
		fn(c, row)
		i := last - 1
		for ; i >= 0; i-- {
			c[i]++
			if c[i] < g.Dim(i) {
				break
			}
			c[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// rowMethod is a method that fills a row of disks faster than DiskOf
// can one bucket at a time.
type rowMethod interface {
	// rowFunc returns the function writing the disks of the row that
	// starts at c into row (see EachRow), or nil when the method's
	// values do not fit the 32-bit reduction.
	rowFunc() func(c grid.Coord, row []int)
}

// rowFuncOf returns m's row function, or the DiskOf fallback.
func rowFuncOf(m Method) func(c grid.Coord, row []int) {
	if rm, ok := m.(rowMethod); ok {
		if fill := rm.rowFunc(); fill != nil {
			return fill
		}
	}
	return func(c grid.Coord, row []int) {
		last := len(c) - 1
		for j := range row {
			c[last] = j
			row[j] = m.DiskOf(c)
		}
		c[last] = 0
	}
}

// fits32 reports whether every value in [0, n) and the disk count m
// fit the 32-bit reduction.
func fits32(n, m int) bool {
	return uint64(n) <= math.MaxUint32+1 && uint64(m) <= math.MaxUint32
}

func (d *GDM) rowFunc() func(grid.Coord, []int) {
	last := len(d.coeffs) - 1
	step := d.coeffs[last] // reduced: in [0, M)
	return func(c grid.Coord, row []int) {
		s := 0
		for i, v := range c[:last] {
			s += d.coeffs[i] * v
		}
		s %= d.m
		for j := range row {
			row[j] = s
			if s += step; s >= d.m {
				s -= d.m
			}
		}
	}
}

func (f *FX) rowFunc() func(grid.Coord, []int) {
	// The XOR of coordinates stays below 2^CubeBits.
	if f.g.CubeBits() > 32 || !fits32(0, f.m) {
		return nil
	}
	last := f.g.K() - 1
	m := uint32(f.m)
	return func(c grid.Coord, row []int) {
		x := 0
		for _, v := range c[:last] {
			x ^= v
		}
		for j := range row {
			row[j] = int((uint32(x) ^ uint32(j)) % m)
		}
	}
}

func (f *ExFX) rowFunc() func(grid.Coord, []int) {
	if f.width > 32 || !fits32(0, f.m) {
		return nil
	}
	last := f.g.K() - 1
	wide := make([]uint32, f.g.Dim(last)) // last-axis value → widened field
	for v := range wide {
		wide[v] = uint32(f.widen(v, last))
	}
	m := uint32(f.m)
	return func(c grid.Coord, row []int) {
		x := 0
		for i, v := range c[:last] {
			x ^= f.widen(v, i)
		}
		for j, w := range wide[:len(row)] {
			row[j] = int((uint32(x) ^ w) % m)
		}
	}
}

func (e *ECC) rowFunc() func(grid.Coord, []int) {
	if !fits32(e.code.Syndromes(), e.m) {
		return nil
	}
	last := len(e.syn) - 1
	syn := e.syn[last]
	m := uint32(e.m)
	return func(c grid.Coord, row []int) {
		s := 0
		for axis, v := range c[:last] {
			s ^= e.syn[axis][v]
		}
		for j, w := range syn[:len(row)] {
			row[j] = int((uint32(s) ^ uint32(w)) % m)
		}
	}
}

func (d *RankDeal) rowFunc() func(grid.Coord, []int) {
	if !fits32(d.g.Buckets(), d.m) {
		return nil
	}
	m := uint32(d.m)
	return func(c grid.Coord, row []int) {
		base := d.g.Linearize(c)
		for j, r := range d.ranks[base : base+len(row)] {
			row[j] = int(uint32(r) % m)
		}
	}
}
