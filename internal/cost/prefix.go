package cost

import (
	"fmt"
	"math"
	"slices"

	"decluster/internal/alloc"
	"decluster/internal/grid"
	"decluster/internal/query"
)

// PrefixEvaluator answers response-time queries from per-disk
// summed-area tables instead of walking buckets. For each disk d the
// table stores the k-dimensional exclusive prefix sum of the indicator
// [diskOf(c) = d] over the allocation, so the number of buckets of any
// axis-aligned rectangle assigned to d is an inclusion–exclusion sum of
// 2^k table entries, and ResponseTime costs O(M·2^k) regardless of the
// rectangle's volume. The walk kernel (Evaluator) is O(volume); on the
// large-query disk sweeps (sides up to 48 ⇒ ~2300 buckets per query)
// the prefix kernel replaces thousands of bucket probes with a handful
// of adds. Construction writes each of the M·Π(d_i+1) counters once in
// one fused pass, plus one prefix pass per axis beyond the last two:
// O(max(1, k−1)·M·buckets), a build-once, query-millions trade, and
// Rebuild repeats it in place for another method.
//
// Layout: one flat []int32 indexed cell-major over the padded grid
// (d_i + 1 entries per axis, so every corner lookup is branchless) with
// the M per-disk counts contiguous per cell — the 2^k corner reads each
// stream M adjacent values. See DESIGN.md §13 for the math.
//
// Like Evaluator, a PrefixEvaluator is not safe for concurrent use
// (shared scratch); build one and hand each goroutine a Clone, which
// shares the immutable tables for free.
type PrefixEvaluator struct {
	method alloc.Method
	g      *grid.Grid
	disks  int
	k      int
	sat    []int32 // padded-cell-major, disks entries per cell
	// pstrides are the padded grid's row-major strides, pre-multiplied
	// by disks so corner offsets index sat directly.
	pstrides []int
	// paddedDims are the padded per-axis extents (d_i + 1) — the loop
	// bounds of the suffix-box updates.
	paddedDims []int
	loads      []int // scratch, len disks
	// corners is the reusable corner-term buffer rectLoads fills by
	// doubling (cap 2^k), replacing the per-mask offset recomputation.
	corners []cornerTerm
	// dcoord is the suffix-box walk's odometer scratch, len k.
	dcoord []int
}

// cornerTerm is one inclusion–exclusion corner: a precomputed sat
// offset and its sign.
type cornerTerm struct {
	off int
	neg bool
}

// PrefixTableBytes returns the memory footprint of a PrefixEvaluator's
// tables for the given grid and disk count — disks × ∏(d_i+1) int32
// counters — or math.MaxInt64 if the product itself overflows. Kernel
// selection compares this against the memory budget.
func PrefixTableBytes(g *grid.Grid, disks int) int64 {
	cells := int64(1)
	for i := 0; i < g.K(); i++ {
		d := int64(g.Dim(i)) + 1
		if cells > math.MaxInt64/d {
			return math.MaxInt64
		}
		cells *= d
	}
	per := int64(disks) * 4
	if cells > math.MaxInt64/per {
		return math.MaxInt64
	}
	return cells * per
}

// NewPrefixEvaluator materializes the per-disk summed-area tables of
// the method's allocation. It returns an error when the tables cannot
// be represented: more buckets than an int32 counter can count, or a
// padded table so large its length overflows an int.
func NewPrefixEvaluator(m alloc.Method) (*PrefixEvaluator, error) {
	e := new(PrefixEvaluator)
	if err := e.Rebuild(m); err != nil {
		return nil, err
	}
	return e, nil
}

// Rebuild makes e the kernel of m, bit-identical to
// NewPrefixEvaluator(m), in place: the tables and scratch reuse e's
// backing arrays when those are large enough, and every table entry is
// written, so nothing of the previous method survives. Like InsertLayer
// it invalidates every Clone taken before the call. On error — the
// tables of m are unrepresentable — e is left unchanged.
func (e *PrefixEvaluator) Rebuild(m alloc.Method) error {
	g := m.Grid()
	disks := m.Disks()
	if err := checkPrefixShape(g, disks); err != nil {
		return err
	}
	k := g.K()
	e.method, e.g, e.disks, e.k = m, g, disks, k
	e.paddedDims = resize(e.paddedDims, k)
	e.pstrides = resize(e.pstrides, k)
	// Strides of the padded grid (row-major, last axis fastest).
	stride := disks
	for i := k - 1; i >= 0; i-- {
		e.paddedDims[i] = g.Dim(i) + 1
		e.pstrides[i] = stride
		stride *= e.paddedDims[i]
	}
	e.sat = resize(e.sat, stride)
	e.loads = resize(e.loads, disks)
	e.corners = resize(e.corners, 1<<uint(k))
	e.dcoord = resize(e.dcoord, k)
	e.build()
	return nil
}

// checkPrefixShape reports whether prefix tables over g on disks disks
// are representable: int32 counters and an int-indexable table.
func checkPrefixShape(g *grid.Grid, disks int) error {
	if int64(g.Buckets()) > math.MaxInt32 {
		return fmt.Errorf("cost: prefix kernel: %d buckets exceed int32 counters", g.Buckets())
	}
	if bytes := PrefixTableBytes(g, disks); bytes == math.MaxInt64 || bytes/4 > math.MaxInt-1 {
		return fmt.Errorf("cost: prefix kernel: table for grid %v × %d disks overflows", g, disks)
	}
	return nil
}

// resize returns s with length n, reusing its backing array when it is
// large enough. What the reused part held is left for the caller to
// overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// build writes every table entry from the method's rows, each entry
// once. The entries with padded coordinate 0 on any axis but the last
// are the zero planes (exclusive prefix: nothing lies below them) and
// are cleared. Every other padded row is one grid row, shifted up one
// on each axis, and one fused pass writes it — the scatter and the
// prefixes of the last two axes together: its first entry is zero, and
// entry x is the entry above it on axis k−2 plus the row's running
// per-disk count of its first x buckets. The other k−2 axes, if any,
// then take one prefix pass each.
func (e *PrefixEvaluator) build() {
	k, disks := e.k, e.disks
	for axis := 0; axis < k-1; axis++ {
		row := e.pstrides[axis]
		block := row * e.paddedDims[axis]
		for base := 0; base < len(e.sat); base += block {
			clear(e.sat[base : base+row])
		}
	}
	width := disks * e.paddedDims[k-1] // one padded row
	above := 0                         // the row above, on axis k−2
	if k > 1 {
		above = e.pstrides[k-2]
	}
	run := e.loads // scratch until the first query
	alloc.EachRow(e.method, func(c grid.Coord, row []int) {
		off := 0
		for i, v := range c[:k-1] {
			off += (v + 1) * e.pstrides[i]
		}
		dst := e.sat[off : off+width]
		clear(dst[:disks])
		clear(run)
		if k == 1 {
			for x, d := range row {
				run[d]++
				cell := dst[(x+1)*disks:][:disks]
				for i := range cell {
					cell[i] = int32(run[i])
				}
			}
			return
		}
		src := e.sat[off-above : off-above+width]
		for x, d := range row {
			run[d]++
			o := (x + 1) * disks
			cell := dst[o : o+disks]
			up := src[o:][:len(cell)]
			for i, r := range run[:len(cell)] {
				cell[i] = up[i] + int32(r)
			}
		}
	})

	// A prefix pass along each remaining axis; after them S[x] holds
	// the box sum over [0,x) per disk. Along one axis the table is
	// blocks of paddedDims[axis] rows, a row being the pstrides[axis]
	// contiguous counters that share that axis coordinate; each row
	// accumulates from its predecessor.
	for axis := 0; axis < k-2; axis++ {
		row := e.pstrides[axis]
		block := row * e.paddedDims[axis]
		for base := 0; base < len(e.sat); base += block {
			for lo := base + row; lo < base+block; lo += row {
				dst := e.sat[lo : lo+row]
				src := e.sat[lo-row : lo]
				for i := range dst {
					dst[i] += src[i]
				}
			}
		}
	}
}

// Method returns the evaluated method.
func (e *PrefixEvaluator) Method() alloc.Method { return e.method }

// TableBytes returns the memory held by the summed-area tables.
func (e *PrefixEvaluator) TableBytes() int64 { return int64(len(e.sat)) * 4 }

// Clone returns an independent evaluator sharing the summed-area
// tables — the cheap way to hand one per goroutine. The tables are
// shared, not copied: an ApplyDelta or MoveCell through any clone is
// visible to all of them, and must not run concurrently with queries on
// any clone. An InsertLayer is not shared — it invalidates every clone
// taken before it.
func (e *PrefixEvaluator) Clone() *PrefixEvaluator {
	cp := *e
	cp.loads = make([]int, e.disks)
	cp.corners = make([]cornerTerm, 1<<uint(e.k))
	cp.dcoord = make([]int, e.k)
	return &cp
}

// Loads writes the per-disk bucket counts of r into the returned slice
// (reused across calls; clone to retain). It allocates nothing: the
// corner terms are built by doubling into a reusable buffer.
func (e *PrefixEvaluator) Loads(r grid.Rect) []int {
	e.rectLoads(r)
	return e.loads
}

// ResponseTime returns the parallel response time of the query in
// bucket accesses: the maximum per-disk load, by inclusion–exclusion
// over the 2^k corners of r.
func (e *PrefixEvaluator) ResponseTime(r grid.Rect) int {
	e.rectLoads(r)
	max := 0
	for _, v := range e.loads {
		if v > max {
			max = v
		}
	}
	return max
}

// rectLoads fills e.loads with the per-disk counts of r. A corner with
// subset T of axes taken at Lo (exclusive low edge) contributes with
// sign (-1)^|T|; corners with any Lo coordinate of 0 hit the all-zero
// boundary plane and vanish. The surviving corner offsets are built by
// doubling into the reusable e.corners buffer: each axis with Lo > 0
// mirrors the corners built so far down by (Hi+1−Lo)·stride with
// flipped sign, which computes all 2^k offsets in O(2^k) total adds
// instead of O(k·2^k) and skips vanished corners without a branch in
// the streaming loop. The first corner (all Hi) is positive and its
// counts are assigned, so the loads need no zeroing pass; each other
// corner's M counters are sliced once and added or subtracted.
func (e *PrefixEvaluator) rectLoads(r grid.Rect) {
	corners := e.corners
	off0 := 0
	for i := 0; i < e.k; i++ {
		off0 += (r.Hi[i] + 1) * e.pstrides[i]
	}
	corners[0] = cornerTerm{off: off0}
	n := 1
	for i := 0; i < e.k; i++ {
		if r.Lo[i] == 0 {
			continue
		}
		delta := (r.Hi[i] + 1 - r.Lo[i]) * e.pstrides[i]
		for j := 0; j < n; j++ {
			corners[n+j] = cornerTerm{off: corners[j].off - delta, neg: !corners[j].neg}
		}
		n *= 2
	}
	loads := e.loads
	for d, v := range e.sat[off0:][:len(loads)] {
		loads[d] = int(v)
	}
	for _, c := range corners[1:n] {
		counts := e.sat[c.off:][:len(loads)]
		if c.neg {
			for d, v := range counts {
				loads[d] -= int(v)
			}
		} else {
			for d, v := range counts {
				loads[d] += int(v)
			}
		}
	}
}

// ApplyDelta folds a load change at one bucket into the summed-area
// tables in place: the bucket at coordinate cell gains delta on disk
// (negative delta removes load). Only the table entries whose
// exclusive-prefix box contains the cell change: the suffix box x with
// x_i > cell_i on every padded axis, so the cost is
// O(∏_i (d_i − cell_i)) — cheapest for cells near the grid's high
// corner, worst O(∏ d_i) for cell 0 — and always beats the
// O(∏(d_i+1)·disks) full rebuild. The update is exact in integers, so
// a delta-maintained table is bit-identical to a from-scratch rebuild
// (fuzz-verified by FuzzPrefixApplyDelta). A cell changing disks is
// MoveCell, which makes both updates in one walk of the box.
//
// ApplyDelta mutates the tables shared by every Clone and must not run
// concurrently with queries on this evaluator or any clone.
func (e *PrefixEvaluator) ApplyDelta(cell grid.Coord, disk, delta int) error {
	if err := e.checkCell("ApplyDelta", cell, disk); err != nil {
		return err
	}
	e.addSuffix(cell, disk, int32(delta), disk, 0)
	return nil
}

// MoveCell folds the bucket at coordinate cell moving from disk from to
// disk to: exactly ApplyDelta(cell, from, −1) then ApplyDelta(cell, to,
// +1), but walking the suffix box once — the two counters of one table
// entry sit within disks·4 bytes of each other, so the second update
// rides the cache line the first one fetched. Like ApplyDelta it
// mutates the tables shared by every Clone.
func (e *PrefixEvaluator) MoveCell(cell grid.Coord, from, to int) error {
	if err := e.checkCell("MoveCell", cell, from); err != nil {
		return err
	}
	if to < 0 || to >= e.disks {
		return fmt.Errorf("cost: MoveCell disk %d outside [0,%d)", to, e.disks)
	}
	e.addSuffix(cell, from, -1, to, +1)
	return nil
}

// checkCell validates a delta's cell and disk against the tables' shape.
func (e *PrefixEvaluator) checkCell(op string, cell grid.Coord, disk int) error {
	if len(cell) != e.k {
		return fmt.Errorf("cost: %s cell %v has %d axes for %d-attribute grid", op, cell, len(cell), e.k)
	}
	for i, v := range cell {
		if v < 0 || v >= e.paddedDims[i]-1 {
			return fmt.Errorf("cost: %s cell %v outside grid %v on axis %d", op, cell, e.g, i)
		}
	}
	if disk < 0 || disk >= e.disks {
		return fmt.Errorf("cost: %s disk %d outside [0,%d)", op, disk, e.disks)
	}
	return nil
}

// addSuffix adds da to disk a's counter and db to disk b's in every
// table entry of the suffix box above cell (a == b with db == 0 is the
// one-column update). The last axis is a plain strided loop; only the
// outer axes step through the odometer.
func (e *PrefixEvaluator) addSuffix(cell grid.Coord, a int, da int32, b int, db int32) {
	last := e.k - 1
	step := e.pstrides[last]
	run := (e.paddedDims[last] - cell[last] - 1) * step
	cur := e.dcoord
	off := 0
	for i, v := range cell {
		cur[i] = v + 1
		off += (v + 1) * e.pstrides[i]
	}
	for {
		row := e.sat[off : off+run]
		for o := 0; o < run; o += step {
			row[o+a] += da
			row[o+b] += db
		}
		i := last - 1
		for ; i >= 0; i-- {
			cur[i]++
			off += e.pstrides[i]
			if cur[i] < e.paddedDims[i] {
				break
			}
			off -= (cur[i] - cell[i] - 1) * e.pstrides[i]
			cur[i] = cell[i] + 1
		}
		if i < 0 {
			return
		}
	}
}

// InsertLayer grows the tables for a grid that duplicated cell layer p
// of the axis (cells p and p+1 of the grown axis hold what cell p
// held, everything above shifts up by one) — a dynamic grid file's
// directory doubling — without reading the allocation. Viewed as
// [outer][d_axis+1][row] with row = the counters sharing one axis
// coordinate, each block gains one row, and on exclusive prefix sums
// the duplication is exact: S'[j] = S[j] for j ≤ p+1 and
// S'[j] = S[j−1] + (S[p+1] − S[p]) for j ≥ p+2. That is one contiguous
// O(table) pass — no read of the allocation and no prefix pass —
// made in place from the back, so no second table is ever live; the
// backing array grows by doubling, so a sequence of inserts allocates
// O(log growth) times. The result is bit-identical to NewPrefixEvaluator
// over the grown allocation (FuzzPrefixInsertLayer).
//
// The method must already report the grown grid. InsertLayer returns an
// error, leaving the tables untouched, when it does not, or when the
// grown tables hit the limits NewPrefixEvaluator enforces.
//
// The backing array may move and the strides change: every Clone taken
// before the call is invalidated and must be dropped, not queried.
func (e *PrefixEvaluator) InsertLayer(axis, p int) error {
	if axis < 0 || axis >= e.k {
		return fmt.Errorf("cost: InsertLayer axis %d outside [0,%d)", axis, e.k)
	}
	pd := e.paddedDims[axis]
	if p < 0 || p >= pd-1 {
		return fmt.Errorf("cost: InsertLayer layer %d outside [0,%d) on axis %d", p, pd-1, axis)
	}
	g := e.method.Grid()
	if g.K() != e.k {
		return fmt.Errorf("cost: InsertLayer: method grid %v has %d axes, tables %d", g, g.K(), e.k)
	}
	for i, d := range e.paddedDims {
		if i == axis {
			d++
		}
		if g.Dim(i) != d-1 {
			return fmt.Errorf("cost: InsertLayer: method grid %v is not the tables' shape grown on axis %d", g, axis)
		}
	}
	if err := checkPrefixShape(g, e.disks); err != nil {
		return err
	}

	row := e.pstrides[axis]
	block := row * pd
	outer := len(e.sat) / block
	n := len(e.sat) + outer*row
	src, dst := e.sat, e.sat
	if n <= cap(dst) {
		dst = dst[:n]
	} else {
		dst = make([]int32, n, max(n, 2*cap(dst)))
	}
	// Back to front, every read of an old row comes before the write
	// that lands on it: new row o·(pd+1)+j reads old rows o·pd+j−1,
	// o·pd+p and o·pd+p+1, none of them past it.
	head := (p + 2) * row
	for o := outer - 1; o >= 0; o-- {
		old := src[o*block : (o+1)*block]
		grown := dst[o*(block+row) : (o+1)*(block+row)]
		lo := old[p*row : (p+1)*row]
		hi := old[(p+1)*row : head]
		for j := pd; j >= p+2; j-- {
			d := grown[j*row : (j+1)*row]
			s := old[(j-1)*row : j*row]
			for i := range d {
				d[i] = s[i] + hi[i] - lo[i]
			}
		}
		copy(grown[:head], old[:head])
	}
	e.sat = dst
	e.g = g
	e.paddedDims[axis]++
	for i := axis - 1; i >= 0; i-- {
		e.pstrides[i] = e.pstrides[i+1] * e.paddedDims[i+1]
	}
	return nil
}

// TablesEqual reports whether e and o hold bit-identical summed-area
// tables over the same shape — the differential-fuzz oracle comparing a
// delta-maintained evaluator against a from-scratch rebuild.
func (e *PrefixEvaluator) TablesEqual(o *PrefixEvaluator) bool {
	return e.disks == o.disks && e.k == o.k &&
		slices.Equal(e.paddedDims, o.paddedDims) &&
		slices.Equal(e.sat, o.sat)
}

// Evaluate measures the method over a workload with the same aggregates
// — bit-identical, via the shared fold — as Evaluate and
// Evaluator.Evaluate.
func (e *PrefixEvaluator) Evaluate(w query.Workload) Result {
	return aggregate(e.method.Name(), e.disks, w, nil, e.ResponseTime)
}
