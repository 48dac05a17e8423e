package cost

import (
	"decluster/internal/alloc"
	"decluster/internal/grid"
	"decluster/internal/query"
)

// Evaluator amortizes the per-query overheads of evaluating one method
// over many queries: the allocation is materialized once into a flat
// table (a single slice lookup replaces the method's per-coordinate
// computation) and the per-disk load counters are reused across
// queries. For table-backed methods this removes interface-call and
// allocation overhead; for computed methods (DM, FX, ECC) it also
// removes the arithmetic from the inner loop. The experiment harness
// evaluates millions of (query, bucket) pairs, so this path matters —
// see BenchmarkEvaluateWorkload.
//
// An Evaluator is not safe for concurrent use (shared scratch); build
// one and hand each goroutine a Clone, which shares the table.
type Evaluator struct {
	method alloc.Method
	g      *grid.Grid
	disks  int
	table  []int
	// loads are the per-disk counters of one query. They are all zero
	// between queries: ResponseTime clears each one as its max pass
	// reads it, and Rebuild and Clone start them at zero.
	loads []int
	// strides mirror the grid's row-major linearization so the outer
	// axes can step bucket numbers incrementally instead of
	// re-linearizing; the last axis's stride is 1.
	strides []int
	// cur is the rectangle walk's odometer scratch, reused across
	// queries so ResponseTime allocates nothing.
	cur []int
}

// NewEvaluator materializes the method's allocation.
func NewEvaluator(m alloc.Method) *Evaluator {
	e := new(Evaluator)
	e.Rebuild(m)
	return e
}

// Rebuild makes e the walk kernel of m, as NewEvaluator(m) builds it,
// in place: the table and scratch reuse e's backing arrays when those
// are large enough, and every table entry is written. It invalidates
// every Clone taken before the call.
func (e *Evaluator) Rebuild(m alloc.Method) {
	g := m.Grid()
	e.method, e.g, e.disks = m, g, m.Disks()
	e.strides = resize(e.strides, g.K())
	stride := 1
	for i := g.K() - 1; i >= 0; i-- {
		e.strides[i] = stride
		stride *= g.Dim(i)
	}
	table := resize(e.table, g.Buckets())[:0]
	alloc.EachRow(m, func(_ grid.Coord, row []int) {
		table = append(table, row...)
	})
	e.table = table
	e.loads = resize(e.loads, e.disks)
	clear(e.loads)
	e.cur = resize(e.cur, g.K())
}

// setDisk updates the materialized table entry for bucket b — the walk
// kernel's delta maintenance (a cell moving disks is one table write).
func (e *Evaluator) setDisk(b, d int) { e.table[b] = d }

// Clone returns an independent evaluator sharing the materialized
// table, as PrefixEvaluator.Clone shares its tables: a cell moved
// through any clone is visible to all of them, and must not run
// concurrently with queries on any clone.
func (e *Evaluator) Clone() *Evaluator {
	cp := *e
	cp.loads = make([]int, e.disks)
	cp.cur = make([]int, len(e.cur))
	return &cp
}

// Method returns the evaluated method.
func (e *Evaluator) Method() alloc.Method { return e.method }

// ResponseTime returns the parallel response time of the query in
// bucket accesses, using the materialized table.
func (e *Evaluator) ResponseTime(r grid.Rect) int {
	loads := e.loads
	// The last axis has stride 1, so each row of the rectangle is one
	// contiguous run of the table; only the outer axes step through the
	// odometer, which carries the row's first bucket number along.
	last := len(r.Lo) - 1
	w := r.Hi[last] - r.Lo[last] + 1
	cur := e.cur[:last+1]
	n := 0
	for i := range cur {
		cur[i] = r.Lo[i]
		n += r.Lo[i] * e.strides[i]
	}
	for {
		for _, d := range e.table[n : n+w] {
			loads[d]++
		}
		i := last - 1
		for ; i >= 0; i-- {
			cur[i]++
			n += e.strides[i]
			if cur[i] <= r.Hi[i] {
				break
			}
			n -= (cur[i] - r.Lo[i]) * e.strides[i]
			cur[i] = r.Lo[i]
		}
		if i < 0 {
			break
		}
	}
	max := 0
	for i, v := range loads {
		if v > max {
			max = v
		}
		loads[i] = 0
	}
	return max
}

// Evaluate measures the method over a workload with the same aggregates
// as the package-level Evaluate.
func (e *Evaluator) Evaluate(w query.Workload) Result {
	return aggregate(e.method.Name(), e.disks, w, nil, e.ResponseTime)
}
