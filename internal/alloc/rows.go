package alloc

import (
	"fmt"
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
// it. The methods of this package write a row from the same tables
// DiskOf reads; any other method falls back to DiskOf per bucket.
func EachRow(m Method, fn func(c grid.Coord, row []int)) {
	g := m.Grid()
	last := g.K() - 1
	rw, _ := m.(interface{ row(c grid.Coord, row []int) })
	c := make(grid.Coord, last+1)
	row := make([]int, g.Dim(last))
	for {
		if rw != nil {
			rw.row(c, row)
		} else {
			for j := range row {
				c[last] = j
				row[j] = m.DiskOf(c)
			}
			c[last] = 0
		}
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

// target is what every rule of this package shares: the grid, the disk
// count M, and whether the values it reduces mod M fit 32 bits.
type target struct {
	g      *grid.Grid
	m      int
	narrow bool
}

// Grid implements Method.
func (t *target) Grid() *grid.Grid { return t.g }

// Disks implements Method.
func (t *target) Disks() int { return t.m }

// mod reduces a value of the rule mod M. It takes a copy, so a row loop
// holding the target in a local keeps M and narrow in registers.
func (t target) mod(x int) int {
	if t.narrow {
		return int(uint32(x) % uint32(t.m))
	}
	return x % t.m
}

// fold is a coordinate-wise rule: a bucket's disk combines one term per
// axis, read from that axis's table, either by sum mod M (the disk
// modulo family, whose terms are below M) or by XOR taken mod M (FX,
// ExFX, ECC).
type fold struct {
	target
	terms [][]int // per axis: coordinate value → term
	xor   bool
}

// newFold builds the tables of a fold over g and m: entry v of axis i
// is term(i, v, t), filled in increasing v, where t is the table so far.
func newFold(g *grid.Grid, m int, xor bool, term func(i, v int, t []int) int) fold {
	narrow := uint64(m) <= math.MaxUint32
	terms := make([][]int, g.K())
	for i := range terms {
		t := make([]int, g.Dim(i))
		for v := range t {
			t[v] = term(i, v, t)
			narrow = narrow && uint64(t[v]) <= math.MaxUint32
		}
		terms[i] = t
	}
	return fold{target{g, m, narrow}, terms, xor}
}

// DiskOf implements Method.
func (f *fold) DiskOf(c grid.Coord) int {
	if len(c) != len(f.terms) {
		f.invalid(c)
	}
	if f.xor {
		return f.mod(f.combine(c))
	}
	return f.combine(c)
}

// combine folds the terms of the leading len(c) axes: a sum already
// reduced mod M, or an XOR not yet reduced. It panics on a value out of
// its axis's range.
func (f *fold) combine(c grid.Coord) int {
	s := 0
	for i, v := range c {
		t := f.terms[i]
		if uint(v) >= uint(len(t)) {
			f.invalid(c)
		}
		if f.xor {
			s ^= t[v]
		} else {
			s = addMod(s, t[v], f.m)
		}
	}
	return s
}

func (f *fold) invalid(c grid.Coord) {
	panic(fmt.Sprintf("alloc: coordinate %v invalid for grid %v", c, f.g))
}

func (f *fold) row(c grid.Coord, row []int) {
	last, t, xor := len(c)-1, f.target, f.xor
	s := f.combine(c[:last])
	for j, v := range f.terms[last][:len(row)] {
		if xor {
			row[j] = t.mod(s ^ v)
		} else {
			row[j] = addMod(s, v, t.m)
		}
	}
}

// addMod returns (x+y) mod m for x, y in [0, m), with no sum that could
// overflow.
func addMod(x, y, m int) int {
	if x >= m-y {
		return x - (m - y)
	}
	return x + y
}

// deal is a bucket-wise rule: the bucket numbered b goes to disk
// vals[b] mod M, every value being below M or below the bucket count.
type deal struct {
	target
	vals []int // bucket number → value; may be shared, never written
}

func newDeal(g *grid.Grid, m int, vals []int) deal {
	narrow := uint64(m) <= math.MaxUint32 && uint64(len(vals)) <= math.MaxUint32+1
	return deal{target{g, m, narrow}, vals}
}

// DiskOf implements Method.
func (d *deal) DiskOf(c grid.Coord) int {
	return d.mod(d.vals[d.g.Linearize(c)])
}

func (d *deal) row(c grid.Coord, row []int) {
	base, t := d.g.Linearize(c), d.target
	for j, v := range d.vals[base : base+len(row)] {
		row[j] = t.mod(v)
	}
}
