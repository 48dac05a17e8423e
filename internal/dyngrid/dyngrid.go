// Package dyngrid implements a dynamic grid file (Nievergelt,
// Hinterberger & Sevcik, TODS 1984 — reference [15] of the reproduced
// paper): the adaptable structure whose *static* snapshot is the
// Cartesian product file the declustering methods allocate. Attribute
// scales grow as data arrives — an overflowing bucket splits, adding a
// partition boundary when needed and doubling the directory along one
// axis — so the partitioning tracks the data distribution. The paper's
// methods assume "the data distribution tends to remain fairly stable
// and thus the allocation of buckets remains fixed over time"; this
// package supplies the structure that assumption is about, with a
// pluggable per-bucket disk allocator so declustering quality can be
// studied under adaptive partitioning too.
package dyngrid

import (
	"fmt"

	"decluster/internal/datagen"
	"decluster/internal/gridfile"
)

// minScaleGap bounds scale resolution: a bucket whose cell interval is
// narrower than this cannot split further and is allowed to overflow
// (the classical pathological-duplicates escape hatch).
const minScaleGap = 1e-9

// Region is a bucket's footprint in directory cells: on axis i it
// covers cell indexes Lo[i] (inclusive) through Hi[i] (exclusive).
// Grid-file buckets always cover an axis-aligned box of cells.
type Region struct {
	Lo, Hi []int
}

// clone deep-copies the region into one backing array.
func (r Region) clone() Region {
	k := len(r.Lo)
	c := make([]int, 2*k)
	copy(c, r.Lo)
	copy(c[k:], r.Hi)
	return Region{Lo: c[:k:k], Hi: c[k:]}
}

// contains reports whether the cell lies inside the region.
func (r Region) contains(cell []int) bool {
	for i := range cell {
		if cell[i] < r.Lo[i] || cell[i] >= r.Hi[i] {
			return false
		}
	}
	return true
}

// span returns the number of cells covered on axis a.
func (r Region) span(a int) int { return r.Hi[a] - r.Lo[a] }

// Allocator chooses the disk for a freshly created bucket from its
// value-space bounding box (lo inclusive, hi exclusive, per attribute).
// The box is stable under later directory reshaping, unlike cell
// indexes; the slices are the file's scratch, valid only during the
// call. Implementations must return a value in [0, disks).
type Allocator func(lo, hi []float64, disks int) int

// RoundRobin returns an allocator dealing disks in creation order —
// the baseline dynamic policy.
func RoundRobin() Allocator {
	next := 0
	return func(_, _ []float64, disks int) int {
		d := next % disks
		next++
		return d
	}
}

// Config describes a dynamic grid file.
type Config struct {
	// K is the number of attributes.
	K int
	// Disks is the number of disks buckets are spread over.
	Disks int
	// Capacity is the records a bucket holds before splitting
	// (default 32).
	Capacity int
	// Allocate picks a disk for each new bucket (default RoundRobin).
	Allocate Allocator
}

// bucket is one storage unit.
type bucket struct {
	region  Region
	disk    int
	records []datagen.Record
}

// File is a dynamic grid file.
type File struct {
	k        int
	disks    int
	capacity int
	allocate Allocator
	// scales[i] holds the interior split points of axis i, sorted
	// ascending; cells on axis i are the len(scales[i])+1 gaps.
	scales [][]float64
	// dir maps directory cells (row-major over dims) to bucket ids.
	dir  []int
	dims []int
	// buckets maps bucket id to storage; ids are dense from 0.
	buckets []*bucket
	count   int
	splits  int
	doubles int
	// obs, when set, receives structural-change notifications (see
	// Observer).
	obs Observer
	// Split scratch, so a split allocates only what the new bucket
	// keeps: the cell handed to CellMoved and the value box handed to
	// the allocator.
	cell         []int
	boxLo, boxHi []float64
}

// New creates an empty dynamic grid file with a single bucket covering
// the whole space.
func New(cfg Config) (*File, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("dyngrid: need K ≥ 1 attributes, got %d", cfg.K)
	}
	if cfg.Disks < 1 {
		return nil, fmt.Errorf("dyngrid: need ≥ 1 disk, got %d", cfg.Disks)
	}
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = 32
	}
	if capacity < 1 {
		return nil, fmt.Errorf("dyngrid: capacity must be ≥ 1, got %d", cfg.Capacity)
	}
	allocate := cfg.Allocate
	if allocate == nil {
		allocate = RoundRobin()
	}
	f := &File{
		k:        cfg.K,
		disks:    cfg.Disks,
		capacity: capacity,
		allocate: allocate,
		scales:   make([][]float64, cfg.K),
		dims:     make([]int, cfg.K),
		cell:     make([]int, cfg.K),
		boxLo:    make([]float64, cfg.K),
		boxHi:    make([]float64, cfg.K),
	}
	for i := range f.dims {
		f.dims[i] = 1
	}
	root := f.newBucket(f.fullRegion())
	f.buckets = []*bucket{root}
	f.dir = []int{0}
	return f, nil
}

// fullRegion covers the whole current directory.
func (f *File) fullRegion() Region {
	lo := make([]int, f.k)
	hi := make([]int, f.k)
	copy(hi, f.dims)
	return Region{Lo: lo, Hi: hi}
}

// newBucket creates the bucket owning region r: the allocator picks its
// disk from r's value-space bounding box under the current scales, and
// its record slice is sized for the capacity+1 records it can hold
// before it splits, so filling it never reallocates.
func (f *File) newBucket(r Region) *bucket {
	for a := 0; a < f.k; a++ {
		f.boxLo[a], _ = f.cellBounds(a, r.Lo[a])
		_, f.boxHi[a] = f.cellBounds(a, r.Hi[a]-1)
	}
	d := f.allocate(f.boxLo, f.boxHi, f.disks)
	if d < 0 || d >= f.disks {
		panic(fmt.Sprintf("dyngrid: allocator returned disk %d outside [0,%d)", d, f.disks))
	}
	return &bucket{region: r, disk: d, records: make([]datagen.Record, 0, f.capacity+1)}
}

// K returns the number of attributes.
func (f *File) K() int { return f.k }

// Disks returns the disk count.
func (f *File) Disks() int { return f.disks }

// Len returns the number of stored records.
func (f *File) Len() int { return f.count }

// NumBuckets returns the number of buckets.
func (f *File) NumBuckets() int { return len(f.buckets) }

// Dims returns the current directory dimensions (cells per axis).
func (f *File) Dims() []int {
	out := make([]int, f.k)
	copy(out, f.dims)
	return out
}

// Scales returns a copy of the interior split points of an axis.
func (f *File) Scales(axis int) []float64 {
	out := make([]float64, len(f.scales[axis]))
	copy(out, f.scales[axis])
	return out
}

// Splits returns how many bucket splits have occurred.
func (f *File) Splits() int { return f.splits }

// DirectoryDoublings returns how many axis doublings have occurred.
func (f *File) DirectoryDoublings() int { return f.doubles }

// axisCell locates v on an axis: its cell index is the number of split
// points ≤ v (split points belong to the right cell).
func (f *File) axisCell(axis int, v float64) int {
	s := f.scales[axis]
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cellOf writes the directory cell containing the values into cell.
func (f *File) cellOf(cell []int, values []float64) []int {
	for i, v := range values {
		cell[i] = f.axisCell(i, v)
	}
	return cell
}

// dirIndex linearizes a directory cell.
func (f *File) dirIndex(cell []int) int {
	idx := 0
	for i, c := range cell {
		idx = idx*f.dims[i] + c
	}
	return idx
}

// bucketAt returns the bucket id owning a cell.
func (f *File) bucketAt(cell []int) int { return f.dir[f.dirIndex(cell)] }

// cellBounds returns the value interval [lo, hi) of cell index c on
// axis a.
func (f *File) cellBounds(a, c int) (float64, float64) {
	lo, hi := 0.0, 1.0
	if c > 0 {
		lo = f.scales[a][c-1]
	}
	if c < len(f.scales[a]) {
		hi = f.scales[a][c]
	}
	return lo, hi
}

// Insert stores a record, splitting buckets and extending scales as
// needed.
func (f *File) Insert(rec datagen.Record) error {
	if len(rec.Values) != f.k {
		return fmt.Errorf("dyngrid: record has %d attributes; file has %d", len(rec.Values), f.k)
	}
	idx := 0
	for i, v := range rec.Values {
		if !(v >= 0 && v < 1) { // in this form NaN fails too
			return fmt.Errorf("dyngrid: attribute %d value %v outside [0,1)", i, v)
		}
		idx = idx*f.dims[i] + f.axisCell(i, v)
	}
	id := f.dir[idx]
	b := f.buckets[id]
	b.records = append(b.records, rec)
	f.count++
	f.maybeSplit(id)
	return nil
}

// InsertAll stores a batch, stopping at the first error.
func (f *File) InsertAll(recs []datagen.Record) error {
	for i, r := range recs {
		if err := f.Insert(r); err != nil {
			return fmt.Errorf("dyngrid: record %d: %w", i, err)
		}
	}
	return nil
}

// maybeSplit splits bucket id until it is under capacity or cannot
// split further.
func (f *File) maybeSplit(id int) {
	for len(f.buckets[id].records) > f.capacity {
		if !f.splitOnce(id) {
			return // unsplittable (degenerate duplicates); overflow
		}
	}
}

// splitOnce performs one split of bucket id, returning false when the
// bucket cannot be split.
func (f *File) splitOnce(id int) bool {
	b := f.buckets[id]
	// Case 1: the bucket spans multiple directory cells on some axis —
	// split the region without touching the scales. Choose the axis
	// with the widest span.
	axis := -1
	for a := 0; a < f.k; a++ {
		if b.region.span(a) > 1 && (axis < 0 || b.region.span(a) > b.region.span(axis)) {
			axis = a
		}
	}
	if axis >= 0 {
		f.splitRegion(id, axis)
		return true
	}
	// Case 2: single-cell bucket — add a scale point on the axis with
	// the widest value interval, doubling the directory there, then
	// split the now-two-cell region.
	axis = -1
	widest := 0.0
	for a := 0; a < f.k; a++ {
		lo, hi := f.cellBounds(a, b.region.Lo[a])
		if w := hi - lo; w > widest {
			widest = w
			axis = a
		}
	}
	if axis < 0 || widest < 2*minScaleGap {
		return false
	}
	lo, hi := f.cellBounds(axis, b.region.Lo[axis])
	f.addScale(axis, b.region.Lo[axis], lo+(hi-lo)/2)
	f.splitRegion(id, axis)
	return true
}

// splitRegion halves bucket id's region along axis, creating a new
// bucket for the upper half and redistributing records.
func (f *File) splitRegion(id, axis int) {
	b := f.buckets[id]
	mid := b.region.Lo[axis] + b.region.span(axis)/2
	upper := b.region.clone()
	upper.Lo[axis] = mid
	b.region.Hi[axis] = mid

	nb := f.newBucket(upper)
	newID := len(f.buckets)
	f.buckets = append(f.buckets, nb)
	f.splits++

	// Repoint the upper half's directory rows, telling the observer
	// about each cell whose owning disk actually changed.
	last := f.k - 1
	moved := f.obs != nil && nb.disk != b.disk
	f.eachRow(f.cell, upper, func(row []int) {
		for i := range row {
			row[i] = newID
		}
		if !moved {
			return
		}
		for c := upper.Lo[last]; c < upper.Hi[last]; c++ {
			f.cell[last] = c
			f.obs.CellMoved(f.cell, b.disk, nb.disk)
		}
	})
	// Redistribute records: a record's cell on the axis is ≥ mid exactly
	// when its value has reached split point mid−1.
	split := f.scales[axis][mid-1]
	keep := b.records[:0]
	for _, rec := range b.records {
		if rec.Values[axis] >= split {
			nb.records = append(nb.records, rec)
		} else {
			keep = append(keep, rec)
		}
	}
	b.records = keep
}

// eachRow visits a region one directory row at a time — the run of
// cells along the last axis, contiguous in dir — with cell (scratch,
// len k) holding the row's coordinates on the other axes; its last
// entry is the callback's to overwrite.
func (f *File) eachRow(cell []int, r Region, fn func(row []int)) {
	last := f.k - 1
	copy(cell, r.Lo)
	for {
		cell[last] = r.Lo[last]
		base := f.dirIndex(cell)
		fn(f.dir[base : base+r.span(last)])
		a := last - 1
		for ; a >= 0; a-- {
			cell[a]++
			if cell[a] < r.Hi[a] {
				break
			}
			cell[a] = r.Lo[a]
		}
		if a < 0 {
			return
		}
	}
}

// addScale inserts a split point at value v inside cell position p of
// the axis, doubling the directory along that axis: cell p becomes
// cells p and p+1 (both initially owned by the same buckets), and every
// bucket region is re-indexed.
func (f *File) addScale(axis, p int, v float64) {
	f.scales[axis] = append(f.scales[axis], 0)
	copy(f.scales[axis][p+1:], f.scales[axis][p:])
	f.scales[axis][p] = v

	// Copy the old directory, duplicating layer p on the axis: seen as
	// [outer][dims[axis]][inner], each block is its layers 0..p, then
	// its layers p..end again.
	inner := product(f.dims[axis+1:])
	block := f.dims[axis] * inner
	newDir := make([]int, len(f.dir)+len(f.dir)/block*inner)
	for src, dst := 0, 0; src < len(f.dir); src, dst = src+block, dst+block+inner {
		n := copy(newDir[dst:], f.dir[src:src+(p+1)*inner])
		copy(newDir[dst+n:], f.dir[src+p*inner:src+block])
	}
	f.dir = newDir
	f.dims[axis]++
	f.doubles++

	// Re-index bucket regions: indexes past the inserted layer shift
	// up; regions containing layer p widen by one.
	for _, b := range f.buckets {
		if b.region.Lo[axis] > p {
			b.region.Lo[axis]++
			b.region.Hi[axis]++
		} else if b.region.Hi[axis] > p {
			b.region.Hi[axis]++
		}
	}
	if f.obs != nil {
		f.obs.LayerInserted(axis, p)
	}
}

func product(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// RangeSearch returns the records with values inside the inclusive
// bounds, with the access trace of the buckets read (pages of
// ⌈records/capacity⌉ like the static file; empty buckets skipped).
func (f *File) RangeSearch(lo, hi []float64) (*gridfile.ResultSet, error) {
	if len(lo) != f.k || len(hi) != f.k {
		return nil, fmt.Errorf("dyngrid: bounds arity %d/%d for %d attributes", len(lo), len(hi), f.k)
	}
	for i := range lo {
		if !(lo[i] <= hi[i] && lo[i] >= 0 && hi[i] < 1) { // in this form NaN fails too
			return nil, fmt.Errorf("dyngrid: invalid bounds [%v, %v] on attribute %d", lo[i], hi[i], i)
		}
	}
	region := Region{Lo: f.cellOf(make([]int, f.k), lo), Hi: f.cellOf(make([]int, f.k), hi)}
	for i := range region.Hi {
		region.Hi[i]++
	}

	rs := &gridfile.ResultSet{Trace: gridfile.Trace{PerDisk: make([][]gridfile.Access, f.disks)}}
	seen := make(map[int]bool)
	f.eachRow(make([]int, f.k), region, func(row []int) {
		for _, id := range row {
			if seen[id] {
				continue
			}
			seen[id] = true
			b := f.buckets[id]
			if len(b.records) == 0 {
				continue
			}
			pages := (len(b.records) + f.capacity - 1) / f.capacity
			rs.Trace.PerDisk[b.disk] = append(rs.Trace.PerDisk[b.disk],
				gridfile.Access{Bucket: id, Pages: pages})
			for _, rec := range b.records {
				inside := true
				for i, v := range rec.Values {
					if v < lo[i] || v > hi[i] {
						inside = false
						break
					}
				}
				if inside {
					rs.Records = append(rs.Records, rec)
				}
			}
		}
	})
	return rs, nil
}

// CheckInvariants verifies the grid-file structural invariants — every
// directory cell points to a bucket whose region contains it, every
// record sits in the bucket owning its cell, scales are strictly
// ascending, and record counts match. Intended for tests.
func (f *File) CheckInvariants() error {
	for a := 0; a < f.k; a++ {
		for i := 1; i < len(f.scales[a]); i++ {
			if f.scales[a][i-1] >= f.scales[a][i] {
				return fmt.Errorf("axis %d scales not ascending at %d", a, i)
			}
		}
		if len(f.scales[a])+1 != f.dims[a] {
			return fmt.Errorf("axis %d: %d scales but %d cells", a, len(f.scales[a]), f.dims[a])
		}
	}
	total := 0
	cell := make([]int, f.k)
	var walk func(a int) error
	walk = func(a int) error {
		if a == f.k {
			id := f.bucketAt(cell)
			if id < 0 || id >= len(f.buckets) {
				return fmt.Errorf("cell %v points to unknown bucket %d", cell, id)
			}
			if !f.buckets[id].region.contains(cell) {
				return fmt.Errorf("cell %v owned by bucket %d whose region %v excludes it",
					cell, id, f.buckets[id].region)
			}
			return nil
		}
		for c := 0; c < f.dims[a]; c++ {
			cell[a] = c
			if err := walk(a + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return err
	}
	c := make([]int, f.k)
	for id, b := range f.buckets {
		total += len(b.records)
		for _, rec := range b.records {
			f.cellOf(c, rec.Values)
			if !b.region.contains(c) {
				return fmt.Errorf("bucket %d holds record %d whose cell %v is outside region %v",
					id, rec.ID, c, b.region)
			}
		}
		if b.disk < 0 || b.disk >= f.disks {
			return fmt.Errorf("bucket %d on invalid disk %d", id, b.disk)
		}
	}
	if total != f.count {
		return fmt.Errorf("record count %d != stored %d", f.count, total)
	}
	return nil
}
