package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/query"
)

// The sweep engine fans (method, workload) evaluation cells across a
// bounded worker pool. Every experiment sweep — rows × methods, or the
// disk sweeps' (M, method) grid — flattens into cells, runs here, and
// reassembles by index, so result ordering is deterministic regardless
// of completion order and the parallel path produces byte-identical
// experiment tables to a -parallel 1 run. A method's kernel is built
// once per call, by the first worker to reach one of its cells; every
// cell evaluates through a Clone (cost.Evaluator/PrefixEvaluator share
// their immutable tables and keep scratch per clone), and the kernel is
// dropped when the method's last cell finishes. The kernel choice (walk
// vs prefix tables, Options.Kernel) is per method, so a method whose
// prefix tables would bust the budget falls back to the walk without
// affecting its neighbours.

// evalCell is one unit of sweep work: one method, by its index in the
// method list handed to evaluateCells, over one workload.
type evalCell struct {
	method int
	w      query.Workload
}

// sharedKernel is one method's kernel for the length of one
// evaluateCells call.
type sharedKernel struct {
	build sync.Once
	clone func() cost.RTEvaluator // nil once released
	err   error
	left  atomic.Int32 // cells of this method not yet evaluated
}

// newKernelCloner builds the chosen kernel for m and returns the
// function that hands out clones sharing its tables.
func (o Options) newKernelCloner(m alloc.Method) (func() cost.RTEvaluator, error) {
	ev, err := cost.NewKernelEvaluator(m, o.Kernel, o.TableBudget)
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
// construction error aborts the sweep (remaining queued cells are
// drained unevaluated).
func (o Options) evaluateCells(methods []alloc.Method, cells []evalCell) ([]cost.Result, error) {
	out := make([]cost.Result, len(cells))
	kernels := make([]sharedKernel, len(methods))
	for _, c := range cells {
		kernels[c.method].left.Add(1)
	}
	par := o.parallel()
	if par > len(cells) {
		par = len(cells)
	}
	if par < 1 {
		par = 1
	}
	var (
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue
				}
				c := cells[idx]
				k := &kernels[c.method]
				k.build.Do(func() { k.clone, k.err = o.newKernelCloner(methods[c.method]) })
				if k.err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = k.err
					}
					mu.Unlock()
					continue
				}
				out[idx] = k.clone().Evaluate(c.w)
				if k.left.Add(-1) == 0 {
					k.clone = nil // last cell: release the tables
				}
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// evaluateGrid evaluates every method over every workload through the
// sweep engine: one row per workload, one column per method, both in
// input order.
func evaluateGrid(methods []alloc.Method, workloads []query.Workload, opt Options) ([]Row, error) {
	cells := make([]evalCell, 0, len(methods)*len(workloads))
	for _, w := range workloads {
		for j := range methods {
			cells = append(cells, evalCell{method: j, w: w})
		}
	}
	res, err := opt.evaluateCells(methods, cells)
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
