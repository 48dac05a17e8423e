// Package grid models the geometry of a Cartesian product file: a
// k-dimensional space whose i-th attribute domain is partitioned into
// d_i intervals, producing a grid of d_1 × d_2 × … × d_k buckets.
//
// A bucket is identified by its coordinate vector <i_1, …, i_k> with
// 0 ≤ i_j < d_j. The package provides linearization (row-major bucket
// numbering), iteration over axis-aligned rectangles (the bucket sets
// touched by range queries), and assorted geometric helpers used by the
// declustering methods and the evaluation harness.
package grid

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Coord is a bucket coordinate vector. Coord values are small and are
// passed by value as slices; callers must not retain coordinates handed
// to iteration callbacks, as the backing array is reused.
type Coord []int

// Clone returns an independent copy of c.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and d have the same dimensionality and the
// same value on every axis.
func (c Coord) Equal(d Coord) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// String renders the coordinate as "<i1,i2,…,ik>".
func (c Coord) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteByte('>')
	return b.String()
}

// Grid describes a k-dimensional Cartesian product file: the number of
// partitions on each attribute. A Grid is immutable after construction.
type Grid struct {
	dims    []int
	strides []int
	buckets int
}

// New constructs a grid with the given partition counts, one per
// attribute. It returns an error unless every dimension is ≥ 1 and the
// total bucket count fits in an int.
func New(dims ...int) (*Grid, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("grid: need at least one dimension")
	}
	g := &Grid{
		dims:    make([]int, len(dims)),
		strides: make([]int, len(dims)),
	}
	copy(g.dims, dims)
	total := 1
	for i, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("grid: dimension %d has %d partitions; need ≥ 1", i, d)
		}
		if total > (1<<62)/d {
			return nil, fmt.Errorf("grid: bucket count overflows: %v", dims)
		}
		total *= d
	}
	g.buckets = total
	// Row-major strides: the last axis varies fastest.
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		g.strides[i] = stride
		stride *= dims[i]
	}
	return g, nil
}

// MustNew is New, panicking on error. Intended for tests and examples
// with constant dimensions.
func MustNew(dims ...int) *Grid {
	g, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return g
}

// Uniform constructs a k-dimensional grid with side partitions on every
// attribute.
func Uniform(k, side int) (*Grid, error) {
	if k < 1 {
		return nil, fmt.Errorf("grid: need k ≥ 1, got %d", k)
	}
	dims := make([]int, k)
	for i := range dims {
		dims[i] = side
	}
	return New(dims...)
}

// Dims returns a copy of the per-attribute partition counts.
func (g *Grid) Dims() []int {
	out := make([]int, len(g.dims))
	copy(out, g.dims)
	return out
}

// Dim returns the number of partitions on attribute i.
func (g *Grid) Dim(i int) int { return g.dims[i] }

// K returns the number of attributes (dimensions).
func (g *Grid) K() int { return len(g.dims) }

// Buckets returns the total number of buckets d_1·d_2·…·d_k.
func (g *Grid) Buckets() int { return g.buckets }

// String renders the grid as "d1×d2×…×dk".
func (g *Grid) String() string {
	parts := make([]string, len(g.dims))
	for i, d := range g.dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "×")
}

// Contains reports whether c is a valid bucket coordinate for g.
func (g *Grid) Contains(c Coord) bool {
	if len(c) != len(g.dims) {
		return false
	}
	for i, v := range c {
		if v < 0 || v >= g.dims[i] {
			return false
		}
	}
	return true
}

// Linearize maps a bucket coordinate to its row-major bucket number in
// [0, Buckets()). It panics if c is not a valid coordinate; use
// Contains to validate untrusted input.
func (g *Grid) Linearize(c Coord) int {
	if len(c) != len(g.dims) {
		panic(fmt.Sprintf("grid: coordinate %v has %d axes; grid has %d", c, len(c), len(g.dims)))
	}
	n := 0
	for i, v := range c {
		if v < 0 || v >= g.dims[i] {
			panic(fmt.Sprintf("grid: coordinate %v out of range for grid %v", c, g))
		}
		n += v * g.strides[i]
	}
	return n
}

// Delinearize maps a row-major bucket number back to its coordinate,
// writing into dst if it has the right length (allocating otherwise),
// and returns it. It panics if n is out of range.
func (g *Grid) Delinearize(n int, dst Coord) Coord {
	if n < 0 || n >= g.buckets {
		panic(fmt.Sprintf("grid: bucket number %d out of range [0,%d)", n, g.buckets))
	}
	if len(dst) != len(g.dims) {
		dst = make(Coord, len(g.dims))
	}
	for i := range g.dims {
		dst[i] = n / g.strides[i]
		n %= g.strides[i]
	}
	return dst
}

// Each calls fn for every bucket coordinate in row-major order. The
// coordinate slice is reused between calls; fn must clone it to retain
// it. Iteration stops early if fn returns false.
func (g *Grid) Each(fn func(c Coord) bool) {
	c := make(Coord, len(g.dims))
	for {
		if !fn(c) {
			return
		}
		if !g.next(c) {
			return
		}
	}
}

// next advances c to the successor coordinate in row-major order,
// returning false when c was the final coordinate.
func (g *Grid) next(c Coord) bool {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]++
		if c[i] < g.dims[i] {
			return true
		}
		c[i] = 0
	}
	return false
}

// Rect is an axis-aligned rectangle of buckets: on attribute i it spans
// coordinates Lo[i] … Hi[i] inclusive. It is exactly the bucket set
// touched by a range query whose predicate intervals cover those
// partitions.
type Rect struct {
	Lo, Hi Coord
}

// CheckRect reports whether r is a well-formed rectangle of g: both
// corners carry one coordinate per axis, and on every axis
// 0 ≤ Lo ≤ Hi < d_i. It is the one statement of that rule; entry points
// that take a Rect from a caller wrap its error with their own package
// prefix, so the message itself carries none.
func (g *Grid) CheckRect(r Rect) error {
	if len(r.Lo) != g.K() || len(r.Hi) != g.K() {
		return fmt.Errorf("rect %v has %d..%d axes for %d-attribute grid %v", r, len(r.Lo), len(r.Hi), g.K(), g)
	}
	for i, d := range g.dims {
		switch lo, hi := r.Lo[i], r.Hi[i]; {
		case lo > hi:
			return fmt.Errorf("rect %v inverted on axis %d (Lo %d > Hi %d)", r, i, lo, hi)
		case lo < 0 || hi >= d:
			return fmt.Errorf("rect %v outside grid %v on axis %d", r, g, i)
		}
	}
	return nil
}

// NewRect validates the corner coordinates against g and returns the
// rectangle. Both corners are inclusive.
func (g *Grid) NewRect(lo, hi Coord) (Rect, error) {
	if err := g.CheckRect(Rect{Lo: lo, Hi: hi}); err != nil {
		return Rect{}, fmt.Errorf("grid: %w", err)
	}
	return Rect{Lo: lo.Clone(), Hi: hi.Clone()}, nil
}

// MustRect is NewRect, panicking on error.
func (g *Grid) MustRect(lo, hi Coord) Rect {
	r, err := g.NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// K returns the rectangle's dimensionality.
func (r Rect) K() int { return len(r.Lo) }

// Side returns the number of partitions the rectangle spans on axis i.
func (r Rect) Side(i int) int { return r.Hi[i] - r.Lo[i] + 1 }

// Sides returns all side lengths.
func (r Rect) Sides() []int {
	out := make([]int, r.K())
	for i := range out {
		out[i] = r.Side(i)
	}
	return out
}

// Volume returns the number of buckets the rectangle covers. The
// product saturates at math.MaxInt instead of wrapping: a rectangle too
// large to count still compares correctly against any representable
// bucket count. Rectangles built by NewRect on a valid Grid can never
// saturate (grid construction bounds the bucket count), but Rect
// literals with astronomical sides are used by theory code and must not
// silently wrap. The overflow test is the high word of a 64-bit
// product, not a division per axis.
func (r Rect) Volume() int {
	v := 1
	for i := range r.Lo {
		s := r.Side(i)
		if s > 1 && v > 0 {
			if hi, lo := bits.Mul64(uint64(v), uint64(s)); hi != 0 || lo > math.MaxInt {
				return math.MaxInt
			}
		}
		v *= s
	}
	return v
}

// Contains reports whether the coordinate lies within the rectangle.
func (r Rect) Contains(c Coord) bool {
	if len(c) != len(r.Lo) {
		return false
	}
	for i, v := range c {
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}

// String renders the rectangle as "<lo>..<hi>".
func (r Rect) String() string {
	return r.Lo.String() + ".." + r.Hi.String()
}

// EachRect calls fn for every bucket coordinate inside r in row-major
// order. The coordinate slice is reused between calls. Iteration stops
// early if fn returns false.
func EachRect(r Rect, fn func(c Coord) bool) {
	c := r.Lo.Clone()
	for {
		if !fn(c) {
			return
		}
		i := len(c) - 1
		for ; i >= 0; i-- {
			c[i]++
			if c[i] <= r.Hi[i] {
				break
			}
			c[i] = r.Lo[i]
		}
		if i < 0 {
			return
		}
	}
}

// AppendRect appends the row-major bucket numbers of r to dst, in
// ascending order, and returns the extended slice: the rectangle as the
// bucket set everything below the entry points routes, schedules and
// reads. r must satisfy CheckRect. The walk is stride arithmetic over a
// running base offset — no Coord, no callback, no Linearize per bucket —
// and allocates nothing beyond growing dst for grids of up to eight
// attributes.
func (g *Grid) AppendRect(dst []int, r Rect) []int {
	dst = slices.Grow(dst, r.Volume())
	last := len(g.dims) - 1
	var scratch [8]int
	c := scratch[:]
	if len(g.dims) > len(scratch) {
		c = make([]int, len(g.dims))
	}
	// c[i] is the walk's offset from r.Lo on outer axis i; base is the
	// bucket number of the current innermost row's first cell.
	base := 0
	for i, lo := range r.Lo {
		base += lo * g.strides[i]
	}
	width := r.Hi[last] - r.Lo[last]
	for {
		for b := base; b <= base+width; b++ {
			dst = append(dst, b)
		}
		i := last - 1
		for ; i >= 0; i-- {
			c[i]++
			base += g.strides[i]
			if r.Lo[i]+c[i] <= r.Hi[i] {
				break
			}
			base -= c[i] * g.strides[i]
			c[i] = 0
		}
		if i < 0 {
			return dst
		}
	}
}

// EachBucket calls fn with the row-major number of every bucket of r,
// ascending — AppendRect's walk for callers that test buckets rather
// than keep them: it stops at the first false, reports whether fn held
// for every bucket, and allocates nothing for grids of up to eight
// attributes. r must satisfy CheckRect. The walk is repeated from
// AppendRect, not shared with it: appending through a per-row callback
// measured 1.8× slower on the routing hot path.
func (g *Grid) EachBucket(r Rect, fn func(b int) bool) bool {
	last := len(g.dims) - 1
	var scratch [8]int
	c := scratch[:]
	if len(g.dims) > len(scratch) {
		c = make([]int, len(g.dims))
	}
	base := 0
	for i, lo := range r.Lo {
		base += lo * g.strides[i]
	}
	width := r.Hi[last] - r.Lo[last]
	for {
		for b := base; b <= base+width; b++ {
			if !fn(b) {
				return false
			}
		}
		i := last - 1
		for ; i >= 0; i-- {
			c[i]++
			base += g.strides[i]
			if r.Lo[i]+c[i] <= r.Hi[i] {
				break
			}
			base -= c[i] * g.strides[i]
			c[i] = 0
		}
		if i < 0 {
			return true
		}
	}
}

// Placements calls fn with every position of a rectangle of the given
// side lengths inside g, in row-major order of the low corner. The Rect
// passed to fn reuses its corner slices between calls; fn must clone
// them to retain the rectangle. It returns the number of placements
// visited (which is ∏(d_i - side_i + 1) when no early stop occurs), or
// an error if the sides do not fit the grid. Iteration stops early if
// fn returns false.
func (g *Grid) Placements(sides []int, fn func(r Rect) bool) (int, error) {
	if len(sides) != g.K() {
		return 0, fmt.Errorf("grid: %d side lengths for %d-dimensional grid", len(sides), g.K())
	}
	for i, s := range sides {
		if s < 1 || s > g.dims[i] {
			return 0, fmt.Errorf("grid: side %d on axis %d does not fit grid %v", s, i, g)
		}
	}
	lo := make(Coord, g.K())
	hi := make(Coord, g.K())
	for i := range hi {
		hi[i] = sides[i] - 1
	}
	count := 0
	for {
		count++
		if !fn(Rect{Lo: lo, Hi: hi}) {
			return count, nil
		}
		i := g.K() - 1
		for ; i >= 0; i-- {
			lo[i]++
			hi[i]++
			if hi[i] < g.dims[i] {
				break
			}
			lo[i] = 0
			hi[i] = sides[i] - 1
		}
		if i < 0 {
			return count, nil
		}
	}
}

// PlacementCount returns the number of distinct positions a rectangle
// with the given side lengths can occupy inside g, or an error if it
// does not fit.
func (g *Grid) PlacementCount(sides []int) (int, error) {
	if len(sides) != g.K() {
		return 0, fmt.Errorf("grid: %d side lengths for %d-dimensional grid", len(sides), g.K())
	}
	n := 1
	for i, s := range sides {
		if s < 1 || s > g.dims[i] {
			return 0, fmt.Errorf("grid: side %d on axis %d does not fit grid %v", s, i, g)
		}
		n *= g.dims[i] - s + 1
	}
	return n, nil
}

// FullRect returns the rectangle covering the entire grid.
func (g *Grid) FullRect() Rect {
	lo := make(Coord, g.K())
	hi := make(Coord, g.K())
	for i := range hi {
		hi[i] = g.dims[i] - 1
	}
	return Rect{Lo: lo, Hi: hi}
}

// IsPowerOfTwo reports whether every dimension of g is a power of two —
// a precondition of the ECC method and of direct Hilbert indexing.
func (g *Grid) IsPowerOfTwo() bool {
	for _, d := range g.dims {
		if d&(d-1) != 0 {
			return false
		}
	}
	return true
}

// BitsPerAxis returns, per axis, the number of bits needed to represent
// coordinates on that axis (⌈log2 d_i⌉, minimum 1).
func (g *Grid) BitsPerAxis() []int {
	out := make([]int, len(g.dims))
	for i, d := range g.dims {
		out[i] = bitsFor(d)
	}
	return out
}

// CubeBits returns the bits per axis of the smallest power-of-two
// hypercube enclosing g — the widest entry of BitsPerAxis. It is the
// order of the space-filling curves that linearize g.
func (g *Grid) CubeBits() int {
	b := 1
	for _, d := range g.dims {
		if ab := bitsFor(d); ab > b {
			b = ab
		}
	}
	return b
}

// bitsFor returns ⌈log2 n⌉ clamped below at 1: the width in bits of the
// largest coordinate on an axis with n partitions.
func bitsFor(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}
