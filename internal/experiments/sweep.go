package experiments

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strconv"
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
// experiment tables to a -parallel 1 run. Each call measures its
// workloads' query volumes once; every cell folds through
// cost.EvaluateVolumes with them, and each method's work (the kernel
// choice's input) is summed from them. The kernel choice (walk vs
// prefix tables, Options.Kernel) is per method: under the auto kernel,
// cost.AutoKernel weighs the method's prefix tables against walking
// all of its cells' queries, so a method whose tables would bust the
// budget or cost more than they save walks without affecting its
// neighbours. The choice is made before any build, and the cells start
// largest tables first. A method's kernel is built once per call, by
// the first worker to reach one of its cells; every cell evaluates
// through a Clone (cost.Evaluator/PrefixEvaluator share their
// immutable tables and keep scratch per clone). When the method's last
// cell finishes, its kernel goes on the call's free list, and a later,
// no larger method's build rebuilds it in place; the list dies with
// the call.

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
	root  cost.RTEvaluator // the build every cell clones; nil once released
	err   error
	left  atomic.Int32 // cells of this method not yet evaluated
}

// spareKernels is one evaluateCells call's free list: the root kernels
// of methods whose cells have all finished, which later methods rebuild
// in place instead of allocating and zeroing tables of their own. It
// dies with its call.
type spareKernels struct {
	mu   sync.Mutex
	free []cost.RTEvaluator
}

func (s *spareKernels) put(ev cost.RTEvaluator) {
	s.mu.Lock()
	s.free = append(s.free, ev)
	s.mu.Unlock()
}

// takeSpare removes and returns the most recently freed kernel of type
// T, if there is one.
func takeSpare[T cost.RTEvaluator](s *spareKernels) (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.free) - 1; i >= 0; i-- {
		if ev, ok := s.free[i].(T); ok {
			s.free = append(s.free[:i], s.free[i+1:]...)
			return ev, true
		}
	}
	var none T
	return none, false
}

// tableBytes returns the memory of the tables kernel builds for m: the
// prefix kernel's summed-area tables, or the walk kernel's one int per
// bucket.
func tableBytes(m alloc.Method, kernel cost.Kernel) int64 {
	switch kernel {
	case cost.KernelPrefix:
		return cost.PrefixTableBytes(m.Grid(), m.Disks())
	case cost.KernelWalk:
		return int64(m.Grid().Buckets()) * strconv.IntSize / 8
	}
	return 0
}

// newKernel builds kernel for m, rebuilding a spare kernel of the same
// type when there is one. Under the auto kernel, a method whose prefix
// tables prove unrepresentable walks.
func (o Options) newKernel(m alloc.Method, kernel cost.Kernel, spare *spareKernels) (cost.RTEvaluator, error) {
	switch kernel {
	case cost.KernelPrefix:
		e, reused := takeSpare[*cost.PrefixEvaluator](spare)
		var err error
		if reused {
			err = e.Rebuild(m)
		} else {
			e, err = cost.NewPrefixEvaluator(m)
		}
		if err == nil {
			return e, nil
		}
		if reused {
			spare.put(e) // Rebuild left it as it was
		}
		if o.Kernel == cost.KernelPrefix {
			return nil, err
		}
	case cost.KernelWalk:
	default:
		return nil, fmt.Errorf("experiments: unknown kernel %v", kernel)
	}
	if e, ok := takeSpare[*cost.Evaluator](spare); ok {
		e.Rebuild(m)
		return e, nil
	}
	return cost.NewEvaluator(m), nil
}

// cloneKernel returns a clone of a kernel newKernel built, sharing its
// tables.
func cloneKernel(ev cost.RTEvaluator) cost.RTEvaluator {
	if e, ok := ev.(*cost.PrefixEvaluator); ok {
		return e.Clone()
	}
	return ev.(*cost.Evaluator).Clone()
}

// measure returns each workload's query volumes, measured once for
// every cell that evaluates the workload, and the work of each method's
// cells, summed from those volumes.
func measure(methods []alloc.Method, workloads []query.Workload, cells []evalCell) ([][]int, []cost.Work) {
	volumes := make([][]int, len(workloads))
	perWorkload := make([]cost.Work, len(workloads))
	for i, w := range workloads {
		volumes[i] = make([]int, len(w.Queries))
		perWorkload[i].Queries = int64(len(w.Queries))
		for j, q := range w.Queries {
			volumes[i][j] = q.Volume()
			perWorkload[i].Buckets += int64(volumes[i][j])
		}
	}
	work := make([]cost.Work, len(methods))
	for _, c := range cells {
		work[c.method] = work[c.method].Add(perWorkload[c.workload])
	}
	return volumes, work
}

// schedule returns the kernel each method gets for its work
// (Options.Kernel, with auto resolved by cost.AutoKernel) and the order
// the engine starts the cells in: non-increasing in the table bytes of
// their method's kernel, input order among equal sizes. A finished
// method's kernel is then always large enough for the next build of its
// type to rebuild in place, and the longest builds start first.
func (o Options) schedule(methods []alloc.Method, work []cost.Work, cells []evalCell) ([]cost.Kernel, []int) {
	kernels := make([]cost.Kernel, len(methods))
	bytes := make([]int64, len(methods))
	for i, m := range methods {
		kernels[i] = o.Kernel
		if o.Kernel == cost.KernelAuto {
			kernels[i] = cost.AutoKernel(m.Grid(), m.Disks(), work[i], o.TableBudget)
		}
		bytes[i] = tableBytes(m, kernels[i])
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(bytes[cells[b].method], bytes[cells[a].method])
	})
	return kernels, order
}

// evaluateCells runs the cells on Options.Parallel workers, in the
// order schedule gives, and returns one Result per cell, aligned to the
// input order. A kernel construction error aborts the sweep; the error
// returned is that of the lowest failing cell index (see forEach).
func (o Options) evaluateCells(methods []alloc.Method, workloads []query.Workload, cells []evalCell) ([]cost.Result, error) {
	volumes, work := measure(methods, workloads, cells)
	kinds, order := o.schedule(methods, work, cells)
	out := make([]cost.Result, len(cells))
	kernels := make([]sharedKernel, len(methods))
	for _, c := range cells {
		kernels[c.method].left.Add(1)
	}
	var spare spareKernels
	err := o.forEach(len(cells), order, func(idx int) error {
		c := cells[idx]
		k := &kernels[c.method]
		k.build.Do(func() { k.root, k.err = o.newKernel(methods[c.method], kinds[c.method], &spare) })
		if k.err != nil {
			return k.err
		}
		out[idx] = cost.EvaluateVolumes(cloneKernel(k.root), workloads[c.workload], volumes[c.workload])
		if k.left.Add(-1) == 0 {
			// Last cell: no clone of the root is in use any more.
			spare.put(k.root)
			k.root = nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEach calls fn(i) for every i in [0, n) on Options.Parallel
// workers, the calling goroutine among them, starting the calls in the
// order given (nil: ascending): the sweep engine's pool, which runs an
// experiment's set-up steps and then its cells. Once a call fails, the
// calls not yet started whose index is above the lowest failed one are
// skipped; every lower index still runs, so the error returned is that
// of the lowest index that fails, whatever the order and the number of
// workers.
func (o Options) forEach(n int, order []int, fn func(i int) error) error {
	var (
		next  atomic.Int64
		errAt atomic.Int64 // the lowest failed index, n while none has
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	errAt.Store(int64(n))
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if order != nil {
				i = order[i]
			}
			if int64(i) > errAt.Load() {
				continue
			}
			if err := fn(i); err != nil {
				mu.Lock()
				if int64(i) < errAt.Load() {
					errAt.Store(int64(i))
					first = err
				}
				mu.Unlock()
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
	return o.forEach(len(steps), nil, func(i int) error { return steps[i]() })
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
