package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/grid"
	"decluster/internal/query"
)

// The sweep engine fans (method, workload) evaluation cells across a
// bounded worker pool; before the cells, an experiment's set-up steps —
// its method sets and workloads — run on the same pool. Every
// experiment sweep — rows × methods, or the disk sweeps' (M, method)
// grid — flattens into cells, runs here, and reassembles by index, so
// result ordering is deterministic regardless
// of completion order and the parallel path produces byte-identical
// experiment tables to a -parallel 1 run. A method's kernel is built
// once per call, by the first worker to reach one of its cells; every
// cell evaluates through a Clone (cost.Evaluator/PrefixEvaluator share
// their immutable tables and keep scratch per clone), and the kernel is
// dropped when the method's last cell finishes. The kernel choice
// (walk vs prefix tables, Options.Kernel) is per method: under the auto
// kernel, cost.AutoKernel weighs the method's prefix tables against
// walking all of its cells' queries, so a method whose tables would
// bust the budget or cost more than they save walks without affecting
// its neighbours.

// evalCell is one unit of sweep work: one method and one workload, by
// their indices in the lists handed to evaluateCells.
type evalCell struct {
	method   int
	workload int
}

// sharedKernel is one method's kernel for the length of one
// evaluateCells call.
type sharedKernel struct {
	build sync.Once
	clone func() cost.RTEvaluator // nil once released
	err   error
	left  atomic.Int32 // cells of this method not yet evaluated
}

// newKernelCloner builds the chosen kernel for m, which will answer
// work, and returns the function that hands out clones sharing its
// tables. Under the auto kernel a method whose work does not pay for
// prefix tables walks; otherwise the budget-only auto of
// cost.NewKernelEvaluator decides, falling back to the walk should the
// tables prove unrepresentable.
func (o Options) newKernelCloner(m alloc.Method, work cost.Work) (func() cost.RTEvaluator, error) {
	kernel := o.Kernel
	if kernel == cost.KernelAuto && cost.AutoKernel(m.Grid(), m.Disks(), work, o.TableBudget) == cost.KernelWalk {
		kernel = cost.KernelWalk
	}
	ev, err := cost.NewKernelEvaluator(m, kernel, o.TableBudget)
	if err != nil {
		return nil, err
	}
	switch e := ev.(type) {
	case *cost.PrefixEvaluator:
		return func() cost.RTEvaluator { return e.Clone() }, nil
	case *cost.Evaluator:
		return func() cost.RTEvaluator { return e.Clone() }, nil
	default:
		return nil, fmt.Errorf("experiments: kernel %T cannot be shared across workers", ev)
	}
}

// evaluateCells runs the cells on Options.Parallel workers and returns
// one Result per cell, aligned to the input order. The first kernel
// construction error aborts the sweep (cells not yet started are
// skipped).
func (o Options) evaluateCells(methods []alloc.Method, workloads []query.Workload, cells []evalCell) ([]cost.Result, error) {
	out := make([]cost.Result, len(cells))
	kernels := make([]sharedKernel, len(methods))
	perWorkload := make([]cost.Work, len(workloads))
	for i, w := range workloads {
		perWorkload[i] = cost.WorkOf(w)
	}
	work := make([]cost.Work, len(methods)) // summed over each method's cells
	for _, c := range cells {
		kernels[c.method].left.Add(1)
		work[c.method] = work[c.method].Add(perWorkload[c.workload])
	}
	err := o.forEach(len(cells), func(idx int) error {
		c := cells[idx]
		k := &kernels[c.method]
		k.build.Do(func() { k.clone, k.err = o.newKernelCloner(methods[c.method], work[c.method]) })
		if k.err != nil {
			return k.err
		}
		out[idx] = k.clone().Evaluate(workloads[c.workload])
		if k.left.Add(-1) == 0 {
			k.clone = nil // last cell: release the tables
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEach calls fn(0), …, fn(n−1) on Options.Parallel workers, the
// calling goroutine among them: the sweep engine's pool, which runs an
// experiment's set-up steps and then its cells. Once a call fails, the
// calls not yet started are skipped, and the error returned is that of
// the failed call with the lowest index.
func (o Options) forEach(n int, fn func(i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errAt  = n
		first  error
		wg     sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				mu.Lock()
				if i < errAt {
					errAt, first = i, err
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	par := min(o.parallel(), n)
	wg.Add(max(par, 1))
	for range par - 1 {
		go worker()
	}
	worker()
	wg.Wait()
	return first
}

// setUp runs an experiment's independent build steps — its method sets
// and workloads — on the sweep engine's pool; see forEach for errors.
func (o Options) setUp(steps ...func() error) error {
	return o.forEach(len(steps), func(i int) error { return steps[i]() })
}

// build returns the method set of g over m disks and the workloads of
// specs, drawn with the options' limit and seed, as set-up steps on the
// sweep engine's pool.
func (o Options) build(g *grid.Grid, m int, specs []query.Spec) ([]alloc.Method, []query.Workload, error) {
	var methods []alloc.Method
	workloads := make([]query.Workload, len(specs))
	steps := []func() error{func() (err error) {
		methods, err = o.methods(g, m)
		return err
	}}
	for i, s := range specs {
		steps = append(steps, func() (err error) {
			workloads[i], err = s.Build(g, o.limit(), o.seed())
			return err
		})
	}
	if err := o.setUp(steps...); err != nil {
		return nil, nil, err
	}
	return methods, workloads, nil
}

// evaluateGrid evaluates every method over every workload through the
// sweep engine: one row per workload, one column per method, both in
// input order.
func evaluateGrid(methods []alloc.Method, workloads []query.Workload, opt Options) ([]Row, error) {
	cells := make([]evalCell, 0, len(methods)*len(workloads))
	for i := range workloads {
		for j := range methods {
			cells = append(cells, evalCell{method: j, workload: i})
		}
	}
	res, err := opt.evaluateCells(methods, workloads, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(workloads))
	for i, w := range workloads {
		rows[i] = Row{Label: w.Name, Results: res[i*len(methods) : (i+1)*len(methods) : (i+1)*len(methods)]}
	}
	return rows, nil
}

// parallel returns the worker-pool size: Options.Parallel when ≥ 1,
// else every available CPU.
func (o Options) parallel() int {
	if o.Parallel >= 1 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}
