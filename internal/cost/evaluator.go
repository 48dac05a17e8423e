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
	loads  []int
	// strides mirror the grid's row-major linearization so the hot loop
	// can walk bucket numbers incrementally instead of re-linearizing.
	strides []int
	// cur is the rectangle walk's odometer scratch, reused across
	// queries so ResponseTime allocates nothing.
	cur []int
}

// NewEvaluator materializes the method's allocation.
func NewEvaluator(m alloc.Method) *Evaluator {
	g := m.Grid()
	strides := make([]int, g.K())
	stride := 1
	for i := g.K() - 1; i >= 0; i-- {
		strides[i] = stride
		stride *= g.Dim(i)
	}
	return &Evaluator{
		method:  m,
		g:       g,
		disks:   m.Disks(),
		table:   alloc.Table(m),
		loads:   make([]int, m.Disks()),
		strides: strides,
		cur:     make([]int, g.K()),
	}
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
	for i := range e.loads {
		e.loads[i] = 0
	}
	// Walk the rectangle in row-major order, maintaining the bucket
	// number incrementally.
	k := len(r.Lo)
	cur := e.cur[:k]
	base := 0
	for i := 0; i < k; i++ {
		cur[i] = r.Lo[i]
		base += r.Lo[i] * e.strides[i]
	}
	max := 0
	n := base
	for {
		d := e.table[n]
		e.loads[d]++
		if e.loads[d] > max {
			max = e.loads[d]
		}
		i := k - 1
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
			return max
		}
	}
}

// Evaluate measures the method over a workload with the same aggregates
// as the package-level Evaluate.
func (e *Evaluator) Evaluate(w query.Workload) Result {
	return aggregate(e.method.Name(), e.disks, w, e.ResponseTime)
}
