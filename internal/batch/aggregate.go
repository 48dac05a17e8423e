package batch

import (
	"fmt"
	"math"

	"decluster/internal/datagen"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
)

// AggregateOp selects the aggregate a query computes over a rectangle.
type AggregateOp int

const (
	// OpCount counts the records inside the rectangle.
	OpCount AggregateOp = iota
	// OpSum sums one attribute over the records inside the rectangle.
	OpSum
	// OpMin takes the minimum of one attribute.
	OpMin
	// OpMax takes the maximum of one attribute.
	OpMax
)

// String names the op as it travels on the wire.
func (o AggregateOp) String() string {
	switch o {
	case OpCount:
		return "count"
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return "unknown"
	}
}

// ParseAggregateOp inverts String.
func ParseAggregateOp(s string) (AggregateOp, error) {
	switch s {
	case "count":
		return OpCount, nil
	case "sum":
		return OpSum, nil
	case "min":
		return OpMin, nil
	case "max":
		return OpMax, nil
	default:
		return 0, fmt.Errorf("batch: unknown aggregate op %q", s)
	}
}

// AggregateQuery asks for one aggregate over a cell rectangle.
type AggregateQuery struct {
	// Rect is the cell rectangle to aggregate over.
	Rect grid.Rect
	// Op selects the aggregate.
	Op AggregateOp
	// Attr is the attribute OpSum/OpMin/OpMax reduce (ignored by
	// OpCount).
	Attr int
}

// AggregateResult is an aggregate answer. Count is always filled — it
// is what tells a merging router whether Min/Max carry a value at all.
type AggregateResult struct {
	Op   AggregateOp
	Attr int
	// Count is the number of records in the rectangle.
	Count int64
	// Sum is the attribute total (OpSum).
	Sum float64
	// Min and Max are the attribute extrema (OpMin/OpMax); meaningful
	// only when Count > 0.
	Min, Max float64
	// Buckets is the number of grid buckets the rectangle covers.
	Buckets int
	// PerDisk is the per-disk record count of the rectangle, straight
	// from the summed-area corners (node-local observability; not
	// merged across cluster nodes).
	PerDisk []int64
}

// MergeAggregates folds partial results of the same (op, attr) — e.g.
// per-shard answers gathered by the cluster router — into one.
func MergeAggregates(op AggregateOp, attr int, parts []AggregateResult) AggregateResult {
	out := AggregateResult{Op: op, Attr: attr}
	for _, p := range parts {
		if p.Count > 0 {
			if out.Count == 0 || p.Min < out.Min {
				out.Min = p.Min
			}
			if out.Count == 0 || p.Max > out.Max {
				out.Max = p.Max
			}
		}
		out.Count += p.Count
		out.Sum += p.Sum
		out.Buckets += p.Buckets
	}
	return out
}

// AggregateIndex answers COUNT/SUM/MIN/MAX over any cell rectangle
// without a single bucket read. It is the record-level sibling of
// cost.PrefixEvaluator: per disk, a k-dimensional exclusive summed-area
// table of record counts (and, per attribute, of value sums) over the
// padded grid, so COUNT and SUM are inclusion–exclusion folds of 2^k
// corners per disk — O(M·2^k) per query regardless of the rectangle's
// volume. MIN and MAX are not invertible under subtraction, so they
// fall back to a per-bucket extrema table walked over the rectangle —
// O(volume) of in-memory probes, still zero disk reads.
//
// The index is a snapshot of the file at build time. It stays safe for
// concurrent use as long as it is left immutable; a holder that keeps
// it current with ApplyInsert takes on that call's single-writer
// contract. Records() lets a holder detect staleness against File.Len()
// and rebuild.
type AggregateIndex struct {
	g       *grid.Grid
	k       int
	disks   int
	f       *gridfile.File
	records int64
	// counts and sums are padded-cell-major with disks entries per
	// cell, exclusive prefix along every axis (see cost.PrefixEvaluator
	// for the layout math).
	counts []int64
	sums   [][]float64 // per attribute
	// pstrides are padded row-major strides pre-multiplied by disks.
	pstrides   []int
	paddedDims []int
	// Per-bucket (raw, not prefix) record counts and attribute extrema
	// for the MIN/MAX walk.
	bucketCount []int64
	bucketMin   [][]float64 // per attribute, valid iff bucketCount > 0
	bucketMax   [][]float64
	// dcoord is ApplyInsert's scratch, len 2k: the inserted record's
	// cell, then the odometer walking the suffix above it.
	dcoord []int
}

// BuildAggregateIndex snapshots the file's per-bucket aggregates into
// prefix tables. Construction is O(k·M·buckets + records); a build
// that would overflow the padded table length fails loudly.
func BuildAggregateIndex(f *gridfile.File) (*AggregateIndex, error) {
	if f == nil {
		return nil, fmt.Errorf("batch: nil grid file")
	}
	g := f.Grid()
	k := g.K()
	disks := f.Disks()
	paddedDims := make([]int, k)
	cells := 1
	for i := 0; i < k; i++ {
		paddedDims[i] = g.Dim(i) + 1
		if cells > math.MaxInt/(paddedDims[i]*disks) {
			return nil, fmt.Errorf("batch: aggregate table for grid %v × %d disks overflows", g, disks)
		}
		cells *= paddedDims[i]
	}
	cellStrides := make([]int, k)
	stride := 1
	for i := k - 1; i >= 0; i-- {
		cellStrides[i] = stride
		stride *= paddedDims[i]
	}
	ix := &AggregateIndex{
		g:           g,
		k:           k,
		disks:       disks,
		f:           f,
		counts:      make([]int64, cells*disks),
		sums:        make([][]float64, k),
		pstrides:    make([]int, k),
		paddedDims:  paddedDims,
		bucketCount: make([]int64, g.Buckets()),
		bucketMin:   make([][]float64, k),
		bucketMax:   make([][]float64, k),
		dcoord:      make([]int, 2*k),
	}
	for i := range cellStrides {
		ix.pstrides[i] = cellStrides[i] * disks
	}
	for a := 0; a < k; a++ {
		ix.sums[a] = make([]float64, cells*disks)
		ix.bucketMin[a] = make([]float64, g.Buckets())
		ix.bucketMax[a] = make([]float64, g.Buckets())
	}

	// Scatter per-bucket aggregates at padded cell c+1 (exclusive
	// prefix), reading each bucket through the file's directory — the
	// grid-file API, not a BucketReader, so building and querying the
	// index never count as disk reads.
	method := f.Method()
	var buildErr error
	g.Each(func(c grid.Coord) bool {
		b := g.Linearize(c)
		rs, err := f.CellRangeSearch(grid.Rect{Lo: c, Hi: c})
		if err != nil {
			buildErr = err
			return false
		}
		if len(rs.Records) == 0 {
			return true
		}
		off := 0
		for i, v := range c {
			off += (v + 1) * ix.pstrides[i]
		}
		d := method.DiskOf(c)
		ix.bucketCount[b] = int64(len(rs.Records))
		ix.counts[off+d] += int64(len(rs.Records))
		ix.records += int64(len(rs.Records))
		for a := 0; a < k; a++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			sum := 0.0
			for _, rec := range rs.Records {
				v := rec.Values[a]
				sum += v
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			ix.sums[a][off+d] += sum
			ix.bucketMin[a][b] = lo
			ix.bucketMax[a][b] = hi
		}
		return true
	})
	if buildErr != nil {
		return nil, buildErr
	}

	// Prefix passes along each axis, per disk.
	for axis := 0; axis < k; axis++ {
		axisStride := cellStrides[axis]
		for p := 0; p < cells; p++ {
			if (p/axisStride)%paddedDims[axis] == 0 {
				continue
			}
			dst := p * disks
			src := dst - ix.pstrides[axis]
			for d := 0; d < disks; d++ {
				ix.counts[dst+d] += ix.counts[src+d]
				for a := 0; a < k; a++ {
					ix.sums[a][dst+d] += ix.sums[a][src+d]
				}
			}
		}
	}
	return ix, nil
}

// Records is the record count the index reflects — compare with
// File.Len() to detect staleness.
func (ix *AggregateIndex) Records() int64 { return ix.records }

// ApplyInsert folds one inserted record into the index in place,
// keeping it current without a rebuild: the suffix box of the record's
// cell gains the record in the count and sum prefix tables
// (O(∏ axis-suffix), the same bound as cost.PrefixEvaluator.ApplyDelta)
// and the bucket's extrema widen — extrema only ever widen under
// inserts, which is why this maintenance is insert-only; a delete can
// shrink a min or max and would need the bucket re-scanned. Call it
// with the same record passed to the file's Insert, after that insert
// succeeded. Counts stay exact; sums accumulate in insertion order, so
// they match a from-scratch rebuild only up to floating-point
// re-association.
//
// ApplyInsert mutates tables concurrent Aggregate calls read: the
// holder must serialize it against queries.
func (ix *AggregateIndex) ApplyInsert(rec datagen.Record) error {
	b, err := ix.f.BucketOf(rec.Values)
	if err != nil {
		return err
	}
	d := ix.f.DiskOf(b)
	if ix.bucketCount[b] == 0 {
		for a := 0; a < ix.k; a++ {
			ix.bucketMin[a][b] = rec.Values[a]
			ix.bucketMax[a][b] = rec.Values[a]
		}
	} else {
		for a := 0; a < ix.k; a++ {
			if v := rec.Values[a]; v < ix.bucketMin[a][b] {
				ix.bucketMin[a][b] = v
			} else if v > ix.bucketMax[a][b] {
				ix.bucketMax[a][b] = v
			}
		}
	}
	ix.bucketCount[b]++
	ix.records++

	c := ix.g.Delinearize(b, ix.dcoord[:ix.k])
	cur := ix.dcoord[ix.k:]
	off := 0
	for i, v := range c {
		cur[i] = v + 1
		off += (v + 1) * ix.pstrides[i]
	}
	for {
		ix.counts[off+d]++
		for a := 0; a < ix.k; a++ {
			ix.sums[a][off+d] += rec.Values[a]
		}
		i := ix.k - 1
		for ; i >= 0; i-- {
			cur[i]++
			off += ix.pstrides[i]
			if cur[i] < ix.paddedDims[i] {
				break
			}
			off -= (cur[i] - c[i] - 1) * ix.pstrides[i]
			cur[i] = c[i] + 1
		}
		if i < 0 {
			return nil
		}
	}
}

// Grid returns the indexed grid.
func (ix *AggregateIndex) Grid() *grid.Grid { return ix.g }

// Aggregate answers one aggregate query from the tables.
func (ix *AggregateIndex) Aggregate(q AggregateQuery) (AggregateResult, error) {
	r := q.Rect
	if err := ix.g.CheckRect(r); err != nil {
		return AggregateResult{}, fmt.Errorf("batch: %w", err)
	}
	if q.Op != OpCount && (q.Attr < 0 || q.Attr >= ix.k) {
		return AggregateResult{}, fmt.Errorf("batch: attribute %d outside [0,%d)", q.Attr, ix.k)
	}

	res := AggregateResult{Op: q.Op, Attr: q.Attr, Buckets: r.Volume(), PerDisk: make([]int64, ix.disks)}
	var sums []float64
	if q.Op == OpSum {
		sums = ix.sums[q.Attr]
	}
	// Inclusion–exclusion over the 2^k corners, per disk; corners with
	// any Lo coordinate at 0 hit the zero boundary plane and are skipped.
	for mask := 0; mask < 1<<uint(ix.k); mask++ {
		off := 0
		neg := false
		skip := false
		for i := 0; i < ix.k; i++ {
			if mask>>uint(i)&1 == 1 {
				if r.Lo[i] == 0 {
					skip = true
					break
				}
				off += r.Lo[i] * ix.pstrides[i]
				neg = !neg
			} else {
				off += (r.Hi[i] + 1) * ix.pstrides[i]
			}
		}
		if skip {
			continue
		}
		sign := int64(1)
		if neg {
			sign = -1
		}
		for d := 0; d < ix.disks; d++ {
			res.PerDisk[d] += sign * ix.counts[off+d]
			if sums != nil {
				res.Sum += float64(sign) * sums[off+d]
			}
		}
	}
	for _, n := range res.PerDisk {
		res.Count += n
	}

	if q.Op == OpMin || q.Op == OpMax {
		mins, maxs := ix.bucketMin[q.Attr], ix.bucketMax[q.Attr]
		first := true
		grid.EachRect(r, func(c grid.Coord) bool {
			b := ix.g.Linearize(c)
			if ix.bucketCount[b] == 0 {
				return true
			}
			if first {
				res.Min, res.Max = mins[b], maxs[b]
				first = false
				return true
			}
			if mins[b] < res.Min {
				res.Min = mins[b]
			}
			if maxs[b] > res.Max {
				res.Max = maxs[b]
			}
			return true
		})
	}
	return res, nil
}
