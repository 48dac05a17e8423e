// Package gridfile implements a multi-disk Cartesian product file: the
// storage substrate the declustering methods allocate. The attribute
// space is partitioned into a fixed grid of buckets (uniform interval
// partitioning per attribute, as in a static grid file); each bucket
// holds records in fixed-capacity pages and lives on the disk its
// declustering method assigns. Searches return both the qualifying
// records and a per-disk page access trace that the disk simulator
// (package disksim) replays into wall-clock response times.
package gridfile

import (
	"fmt"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/grid"
	"decluster/internal/partition"
)

// DefaultPageCapacity is the records-per-page used when the
// configuration leaves PageCapacity zero.
const DefaultPageCapacity = 32

// Config describes a grid file.
type Config struct {
	// Method declusters the file's buckets; it fixes both the grid and
	// the number of disks.
	Method alloc.Method
	// PageCapacity is the number of records per page
	// (DefaultPageCapacity when 0).
	PageCapacity int
	// Boundaries optionally sets per-axis interior partition boundaries
	// (e.g. equi-depth quantiles from partition.EquiDepth); nil selects
	// uniform equal-width intervals. When set it must validate against
	// the method's grid dimensions.
	Boundaries [][]float64
}

// File is a populated multi-disk Cartesian product file.
type File struct {
	method     alloc.Method
	g          *grid.Grid
	capacity   int
	boundaries [][]float64        // nil = uniform intervals
	buckets    [][]datagen.Record // row-major bucket → records
	diskOf     []int              // row-major bucket → disk (precomputed)
	count      int
}

// New creates an empty grid file.
func New(cfg Config) (*File, error) {
	if cfg.Method == nil {
		return nil, fmt.Errorf("gridfile: nil declustering method")
	}
	capacity := cfg.PageCapacity
	if capacity == 0 {
		capacity = DefaultPageCapacity
	}
	if capacity < 1 {
		return nil, fmt.Errorf("gridfile: page capacity must be ≥ 1, got %d", capacity)
	}
	g := cfg.Method.Grid()
	if cfg.Boundaries != nil {
		if err := partition.Validate(cfg.Boundaries, g.Dims()); err != nil {
			return nil, fmt.Errorf("gridfile: %w", err)
		}
	}
	return &File{
		method:     cfg.Method,
		g:          g,
		capacity:   capacity,
		boundaries: cfg.Boundaries,
		buckets:    make([][]datagen.Record, g.Buckets()),
		diskOf:     alloc.Table(cfg.Method),
	}, nil
}

// cellIndex returns the partition index of value v on axis a under the
// file's boundary configuration.
func (f *File) cellIndex(a int, v float64) int {
	if f.boundaries != nil {
		return partition.Locate(f.boundaries[a], v)
	}
	c := int(v * float64(f.g.Dim(a)))
	if c >= f.g.Dim(a) {
		c = f.g.Dim(a) - 1
	}
	return c
}

// BucketOf maps a record's attribute values to the row-major number of
// the bucket that stores them under the file's partition boundaries —
// exported so data placement layers (e.g. a cluster sharding records
// across nodes) decide ownership with the file's own geometry instead
// of re-implementing it. The index is accumulated axis by axis; no
// Coord is built.
func (f *File) BucketOf(values []float64) (int, error) {
	if len(values) != f.g.K() {
		return 0, fmt.Errorf("gridfile: record has %d attributes; grid %v has %d", len(values), f.g, f.g.K())
	}
	b := 0
	for i, v := range values {
		if !(v >= 0 && v < 1) { // in this form NaN fails too
			return 0, fmt.Errorf("gridfile: attribute %d value %v outside [0,1)", i, v)
		}
		b = b*f.g.Dim(i) + f.cellIndex(i, v)
	}
	return b, nil
}

// Grid returns the file's grid.
func (f *File) Grid() *grid.Grid { return f.g }

// Disks returns the number of disks the file spans.
func (f *File) Disks() int { return f.method.Disks() }

// Method returns the declustering method in use.
func (f *File) Method() alloc.Method { return f.method }

// DiskOf returns the disk holding the row-major bucket b, read from the
// table the file precomputes at construction: the routing hot path asks
// this instead of paying Method.DiskOf's interface call and coordinate
// arithmetic per bucket.
func (f *File) DiskOf(b int) int { return f.diskOf[b] }

// Len returns the number of records stored.
func (f *File) Len() int { return f.count }

// PageCapacity returns the records-per-page setting.
func (f *File) PageCapacity() int { return f.capacity }

// Insert stores one record in the bucket containing its values.
func (f *File) Insert(r datagen.Record) error {
	b, err := f.BucketOf(r.Values)
	if err != nil {
		return err
	}
	f.buckets[b] = append(f.buckets[b], r)
	f.count++
	return nil
}

// InsertAll stores a batch of records, stopping at the first error.
func (f *File) InsertAll(rs []datagen.Record) error {
	for i, r := range rs {
		if err := f.Insert(r); err != nil {
			return fmt.Errorf("gridfile: record %d: %w", i, err)
		}
	}
	return nil
}

// Delete removes the record matching rec's ID from the bucket holding
// rec's values, reporting whether a record was removed. Values are
// required because the bucket is located by them — the grid file has no
// secondary index on IDs.
func (f *File) Delete(rec datagen.Record) (bool, error) {
	b, err := f.BucketOf(rec.Values)
	if err != nil {
		return false, err
	}
	for i, r := range f.buckets[b] {
		if r.ID == rec.ID {
			last := len(f.buckets[b]) - 1
			f.buckets[b][i] = f.buckets[b][last]
			f.buckets[b] = f.buckets[b][:last]
			f.count--
			return true, nil
		}
	}
	return false, nil
}

// Stats summarizes the file's physical occupancy.
type Stats struct {
	// Records stored.
	Records int
	// OccupiedBuckets counts buckets with at least one record.
	OccupiedBuckets int
	// TotalPages across all buckets.
	TotalPages int
	// PagesPerDisk sums pages per disk; its spread measures storage
	// balance (as opposed to the access balance the RT metric measures).
	PagesPerDisk []int
}

// Stats computes the file's occupancy summary.
func (f *File) Stats() Stats {
	s := Stats{Records: f.count, PagesPerDisk: make([]int, f.Disks())}
	for b := range f.buckets {
		if len(f.buckets[b]) == 0 {
			continue
		}
		s.OccupiedBuckets++
		pages := f.BucketPages(b)
		s.TotalPages += pages
		s.PagesPerDisk[f.diskOf[b]] += pages
	}
	return s
}

// BucketLen returns the number of records in the row-major bucket b.
func (f *File) BucketLen(b int) int { return len(f.buckets[b]) }

// Bucket returns the records of the row-major bucket b as a read-only
// view of the file's internal storage — the zero-copy accessor behind
// the executor's hot read path. Callers must not mutate the returned
// slice or hold it across an Insert or Delete; copy anything that
// outlives the read (the executor copies during its merge).
func (f *File) Bucket(b int) []datagen.Record { return f.buckets[b] }

// BucketPages returns the number of pages bucket b occupies:
// ⌈records/capacity⌉, with empty buckets occupying no pages (the grid
// directory records bucket sizes, so empty buckets are never read).
func (f *File) BucketPages(b int) int {
	n := len(f.buckets[b])
	return (n + f.capacity - 1) / f.capacity
}

// Access records pages read from one bucket.
type Access struct {
	// Bucket is the row-major bucket number read.
	Bucket int
	// Pages is the number of pages read from it (≥ 1; zero-page
	// buckets are skipped).
	Pages int
}

// Trace is the I/O footprint of one search: page reads grouped by disk,
// in bucket visit order.
type Trace struct {
	// PerDisk has one access list per disk.
	PerDisk [][]Access
}

// TotalPages sums page reads across all disks.
func (t Trace) TotalPages() int {
	total := 0
	for _, as := range t.PerDisk {
		for _, a := range as {
			total += a.Pages
		}
	}
	return total
}

// MaxDiskPages returns the page reads on the busiest disk — the
// parallel response time in page units.
func (t Trace) MaxDiskPages() int {
	max := 0
	for _, as := range t.PerDisk {
		pages := 0
		for _, a := range as {
			pages += a.Pages
		}
		if pages > max {
			max = pages
		}
	}
	return max
}

// BucketsTouched counts buckets read across all disks.
func (t Trace) BucketsTouched() int {
	n := 0
	for _, as := range t.PerDisk {
		n += len(as)
	}
	return n
}

// ResultSet is the outcome of a search: the qualifying records and the
// trace of page I/O that produced them.
type ResultSet struct {
	Records []datagen.Record
	Trace   Trace
}

// CellRangeSearch reads every bucket of the cell rectangle r and
// returns all their records (no value-level filtering) with the access
// trace. It is the bucket-granularity search the paper's metric counts.
func (f *File) CellRangeSearch(r grid.Rect) (*ResultSet, error) {
	if err := f.g.CheckRect(r); err != nil {
		return nil, fmt.Errorf("gridfile: %w", err)
	}
	rs := &ResultSet{Trace: Trace{PerDisk: make([][]Access, f.Disks())}}
	for _, b := range f.g.AppendRect(nil, r) {
		pages := f.BucketPages(b)
		if pages == 0 {
			continue
		}
		disk := f.diskOf[b]
		rs.Trace.PerDisk[disk] = append(rs.Trace.PerDisk[disk], Access{Bucket: b, Pages: pages})
		rs.Records = append(rs.Records, f.buckets[b]...)
	}
	return rs, nil
}

// RangeSearch returns the records whose value vector lies inside
// [lo_i, hi_i] on every attribute (inclusive bounds, values in [0,1)),
// together with the access trace of the buckets read. Buckets are read
// whole; records are filtered to the exact bounds.
func (f *File) RangeSearch(lo, hi []float64) (*ResultSet, error) {
	rect, err := f.ValueRect(lo, hi)
	if err != nil {
		return nil, err
	}
	rs, err := f.CellRangeSearch(rect)
	if err != nil {
		return nil, err
	}
	filtered := rs.Records[:0]
	for _, rec := range rs.Records {
		if inBounds(rec.Values, lo, hi) {
			filtered = append(filtered, rec)
		}
	}
	rs.Records = filtered
	return rs, nil
}

// PartialMatchSearch returns records matching the specified attribute
// values exactly at grid resolution: attribute i must fall in the same
// partition as vals[i] when specified[i], and is unrestricted
// otherwise.
func (f *File) PartialMatchSearch(vals []float64, specified []bool) (*ResultSet, error) {
	if len(vals) != f.g.K() || len(specified) != f.g.K() {
		return nil, fmt.Errorf("gridfile: partial match arity %d/%d for %d-attribute grid",
			len(vals), len(specified), f.g.K())
	}
	lo := make(grid.Coord, f.g.K())
	hi := make(grid.Coord, f.g.K())
	for i := range vals {
		if specified[i] {
			if !(vals[i] >= 0 && vals[i] < 1) { // in this form NaN fails too
				return nil, fmt.Errorf("gridfile: attribute %d value %v outside [0,1)", i, vals[i])
			}
			p := f.cellIndex(i, vals[i])
			lo[i], hi[i] = p, p
		} else {
			lo[i], hi[i] = 0, f.g.Dim(i)-1
		}
	}
	return f.CellRangeSearch(grid.Rect{Lo: lo, Hi: hi})
}

// ValueRect converts inclusive value bounds to the cell rectangle
// covering them under the file's partition boundaries — exported so a
// concurrent search (exec) maps values with the file's own geometry
// instead of re-implementing it.
func (f *File) ValueRect(lo, hi []float64) (grid.Rect, error) {
	if len(lo) != f.g.K() || len(hi) != f.g.K() {
		return grid.Rect{}, fmt.Errorf("gridfile: bounds arity %d/%d for %d-attribute grid",
			len(lo), len(hi), f.g.K())
	}
	rl := make(grid.Coord, f.g.K())
	rh := make(grid.Coord, f.g.K())
	for i := range lo {
		if lo[i] > hi[i] {
			return grid.Rect{}, fmt.Errorf("gridfile: bounds inverted on attribute %d: %v > %v", i, lo[i], hi[i])
		}
		if !(lo[i] >= 0 && hi[i] < 1) { // in this form NaN fails too
			return grid.Rect{}, fmt.Errorf("gridfile: bounds [%v,%v] on attribute %d outside [0,1)", lo[i], hi[i], i)
		}
		rl[i] = f.cellIndex(i, lo[i])
		rh[i] = f.cellIndex(i, hi[i])
	}
	return grid.Rect{Lo: rl, Hi: rh}, nil
}

// inBounds reports whether values lie inside the inclusive bounds.
func inBounds(vals, lo, hi []float64) bool {
	for i := range vals {
		if vals[i] < lo[i] || vals[i] > hi[i] {
			return false
		}
	}
	return true
}
