package cost

import (
	"decluster/internal/alloc"
	"decluster/internal/grid"
	"decluster/internal/query"
)

// MaintainedEvaluator keeps a response-time kernel correct while the
// underlying method's cell→disk mapping mutates — the bridge between
// the summed-area kernels (built once, immutable) and a mutating store
// like dyngrid, whose splits move cells between disks and whose
// directory doublings change the grid shape outright.
//
// Both of dyngrid's structural changes are folded in place. A cell
// moving disks is one PrefixEvaluator.MoveCell suffix-box walk on the
// prefix kernel (O(∏ axis-suffix)) or a single table write on the walk
// kernel. A directory doubling is one PrefixEvaluator.InsertLayer pass
// over the live tables (LayerInserted) as long as kernel selection
// would pick the prefix kernel again for the grown shape. Any other
// shape change — a doubling the prefix kernel cannot follow, one under
// the walk kernel, or any other reshape the dims check detects —
// invalidates every table index, so the evaluator
// re-arbitrates and re-tiles through the same budgeted kernel selection
// as NewKernelEvaluator on the next use, never silently serving loads
// for a grid that no longer exists. If the grown grid pushes a forced
// prefix kernel past what its tables can represent, the evaluator
// degrades to the walk kernel rather than failing queries.
//
// Like the kernels it wraps, a MaintainedEvaluator is not safe for
// concurrent use.
type MaintainedEvaluator struct {
	method alloc.Method
	kernel Kernel
	budget int64

	eval   RTEvaluator
	prefix *PrefixEvaluator // non-nil when eval is the prefix kernel
	walk   *Evaluator       // non-nil when eval is the walk kernel
	dims   []int            // grid shape the kernel was tiled for
	stale  bool
}

// NewMaintainedEvaluator builds a maintained kernel over m with the
// same arbitration as NewKernelEvaluator. The method must be the live
// view of the mutating store: after mutations, its Grid and DiskOf
// reflect the current mapping, which re-tiling reads.
func NewMaintainedEvaluator(m alloc.Method, k Kernel, tableBudget int64) (*MaintainedEvaluator, error) {
	if tableBudget <= 0 {
		tableBudget = DefaultTableBudget
	}
	e := &MaintainedEvaluator{method: m, kernel: k, budget: tableBudget}
	if err := e.retile(); err != nil {
		return nil, err
	}
	return e, nil
}

// retile rebuilds the kernel from the method's current state.
func (e *MaintainedEvaluator) retile() error {
	ev, err := NewKernelEvaluator(e.method, e.kernel, e.budget)
	if err != nil {
		return err
	}
	e.install(ev)
	return nil
}

func (e *MaintainedEvaluator) install(ev RTEvaluator) {
	e.eval = ev
	e.prefix, _ = ev.(*PrefixEvaluator)
	e.walk, _ = ev.(*Evaluator)
	g := e.method.Grid()
	e.dims = e.dims[:0]
	for i := 0; i < g.K(); i++ {
		e.dims = append(e.dims, g.Dim(i))
	}
	e.stale = false
}

// shapeChanged reports whether the method's grid no longer matches the
// shape the kernel was tiled for.
func (e *MaintainedEvaluator) shapeChanged() bool {
	g := e.method.Grid()
	if g.K() != len(e.dims) {
		return true
	}
	for i := range e.dims {
		if g.Dim(i) != e.dims[i] {
			return true
		}
	}
	return false
}

// ensure re-tiles if a reshape was signalled or detected. Detection
// covers every reshape no LayerInserted announced: the evaluator never
// serves loads tiled for a stale shape, because every query re-checks
// the dims (k integer compares).
func (e *MaintainedEvaluator) ensure() {
	if !e.stale && !e.shapeChanged() {
		return
	}
	if err := e.retile(); err != nil {
		// A forced prefix kernel whose grown table is unrepresentable:
		// degrade to the always-buildable walk kernel.
		e.install(NewEvaluator(e.method))
	}
}

// CellMoved folds one cell's disk reassignment into the kernel. Under a
// pending reshape the move is subsumed by the coming re-tile.
func (e *MaintainedEvaluator) CellMoved(cell grid.Coord, from, to int) error {
	if e.stale || e.shapeChanged() {
		e.stale = true
		return nil
	}
	if e.prefix != nil {
		return e.prefix.MoveCell(cell, from, to)
	}
	e.walk.setDisk(e.method.Grid().Linearize(cell), to)
	return nil
}

// LayerInserted folds a directory doubling — cell layer p of the axis
// duplicated, the method already reporting the grown grid — into the
// live prefix tables in place, when kernel selection would choose the
// prefix kernel again for the grown shape (KernelPrefix: representable;
// KernelAuto: within the budget). Otherwise the kernel is marked stale:
// the next query re-tiles, or degrades a forced prefix kernel to the
// walk.
func (e *MaintainedEvaluator) LayerInserted(axis, p int) {
	if e.stale || e.prefix == nil || !e.prefixFits() || e.prefix.InsertLayer(axis, p) != nil {
		e.stale = true
		return
	}
	e.dims[axis]++
}

// prefixFits reports whether KernelAuto's budget admits prefix tables
// for the method's current grid; a forced prefix kernel has no budget.
func (e *MaintainedEvaluator) prefixFits() bool {
	return e.kernel == KernelPrefix ||
		PrefixTableBytes(e.method.Grid(), e.method.Disks()) <= e.budget
}

// Method returns the evaluated method.
func (e *MaintainedEvaluator) Method() alloc.Method { return e.method }

// Prefix exposes the live prefix kernel (nil when the walk kernel is
// active) — the hook the differential fuzz uses to compare maintained
// tables against a from-scratch rebuild.
func (e *MaintainedEvaluator) Prefix() *PrefixEvaluator {
	e.ensure()
	return e.prefix
}

// ResponseTime answers from the maintained kernel, re-tiling first if
// the grid changed shape.
func (e *MaintainedEvaluator) ResponseTime(r grid.Rect) int {
	e.ensure()
	return e.eval.ResponseTime(r)
}

// Evaluate measures the method over a workload with the shared fold.
func (e *MaintainedEvaluator) Evaluate(w query.Workload) Result {
	e.ensure()
	return e.eval.Evaluate(w)
}
