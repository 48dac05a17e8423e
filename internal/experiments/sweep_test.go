package experiments

import (
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/grid"
	"decluster/internal/query"
)

// The parallel sweep must produce byte-identical experiment tables to
// the serial path for the same seed — same Results, same ordering,
// regardless of worker count or completion order.
func TestSweepParallelMatchesSerial(t *testing.T) {
	cfg := DisksConfig{Disks: []int{4, 8, 16}}
	serial, err := DisksLarge(cfg, Options{Seed: 3, SampleLimit: 200, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 7, 32} {
		parallel, err := DisksLarge(cfg, Options{Seed: 3, SampleLimit: 200, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("parallel=%d sweep differs from serial:\nserial   %+v\nparallel %+v", par, serial, parallel)
		}
		if serial.Table(MeanRT).String() != parallel.Table(MeanRT).String() {
			t.Fatalf("parallel=%d rendered table differs from serial", par)
		}
	}
}

// Walk and prefix kernels must yield identical sweeps: the kernel is a
// performance choice, never a results choice.
func TestSweepKernelsAgree(t *testing.T) {
	for _, build := range []func(Options) (*Experiment, error){
		func(o Options) (*Experiment, error) {
			return DisksSmall(DisksConfig{Disks: []int{4, 8}}, o)
		},
		func(o Options) (*Experiment, error) {
			return QuerySize(SizeConfig{Areas: []int{4, 64}}, o)
		},
	} {
		walk, err := build(Options{Seed: 5, SampleLimit: 150, Kernel: cost.KernelWalk})
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := build(Options{Seed: 5, SampleLimit: 150, Kernel: cost.KernelPrefix})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(walk, prefix) {
			t.Fatalf("kernels disagree:\nwalk   %+v\nprefix %+v", walk, prefix)
		}
	}
}

// An auto kernel starved of table memory must fall back to the walk and
// still agree.
func TestSweepAutoKernelBudgetFallback(t *testing.T) {
	opt := Options{Seed: 5, SampleLimit: 100}
	starved := opt
	starved.TableBudget = 1 // nothing fits: every cell walks
	a, err := DisksSmall(DisksConfig{Disks: []int{4, 8}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DisksSmall(DisksConfig{Disks: []int{4, 8}}, starved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("budget fallback changed sweep results")
	}
}

// Under the auto kernel the engine builds what a method's work calls
// for: the same method walks DisksSmall's queries and gets prefix
// tables for DisksLarge's.
func TestSweepAutoKernelFollowsWork(t *testing.T) {
	g := grid.MustNew(64, 64)
	m, err := alloc.NewHCAM(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lo, hi int
		prefix bool
	}{{1, 4, false}, {16, 48, true}} {
		w, err := query.RandomRange(g, tc.lo, tc.hi, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		methods, cells := []alloc.Method{m}, []evalCell{{}}
		_, work := measure(methods, []query.Workload{w}, cells)
		kernels, _ := Options{}.schedule(methods, work, cells)
		ev, err := Options{}.newKernel(m, kernels[0], &spareKernels{})
		if err != nil {
			t.Fatal(err)
		}
		if _, got := ev.(*cost.PrefixEvaluator); got != tc.prefix {
			t.Errorf("sides %d..%d: built %T, want prefix %v", tc.lo, tc.hi, ev, tc.prefix)
		}
	}
}

// An explicitly exhaustive disk sweep cannot be honoured (the band is
// open-ended); the experiment must say so instead of silently handing
// back sampled data — and the data must equal the sampled run it
// actually performed.
func TestSweepExhaustiveDisksWarns(t *testing.T) {
	cfg := DisksConfig{Disks: []int{4, 8}}
	ex, err := DisksLarge(cfg, Options{Seed: 2, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Warnings) != 1 {
		t.Fatalf("Warnings = %v, want exactly one", ex.Warnings)
	}
	if w := ex.Warnings[0]; !strings.Contains(w, "exhaustive") || !strings.Contains(w, "sampled 2000") {
		t.Fatalf("warning %q does not explain the substitution", w)
	}
	sampled, err := DisksLarge(cfg, Options{Seed: 2, SampleLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ex.Rows, sampled.Rows) {
		t.Fatal("exhaustive-requested data differs from the sampled run it claims to be")
	}
	if len(sampled.Warnings) != 0 {
		t.Fatalf("sampled run warned: %v", sampled.Warnings)
	}
}

// A kernel that cannot be built aborts the sweep with the error of the
// lowest failing cell index, whatever the start order and the number of
// workers. Forced prefix tables for DM on a grid beyond int32 counters
// are refused before anything is allocated. The two huge methods'
// tables are the largest, so their cells start first, the higher index
// (the larger grid) first of all; the small method's cell, below both,
// still runs.
func TestSweepKernelErrorPropagates(t *testing.T) {
	small := grid.MustNew(8, 8)
	w, err := query.RandomRange(small, 1, 4, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	var methods []alloc.Method
	for _, g := range []*grid.Grid{small, grid.MustNew(1<<16, 1<<16+1), grid.MustNew(1<<16, 1<<16+2)} {
		m, err := alloc.NewDM(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		methods = append(methods, m)
	}
	cells := []evalCell{{method: 0}, {method: 1}, {method: 2}}
	workloads := []query.Workload{w}
	opt := Options{Kernel: cost.KernelPrefix}
	_, work := measure(methods, workloads, cells)
	if _, order := opt.schedule(methods, work, cells); !slices.Equal(order, []int{2, 1, 0}) {
		t.Fatalf("start order %v, want [2 1 0]", order)
	}
	const cell1 = "4295032832 buckets" // 2^16 × (2^16+1), refused by cell 1's build
	for _, par := range []int{1, 2, 4} {
		opt.Parallel = par
		_, err := opt.evaluateCells(methods, workloads, cells)
		if err == nil || !strings.Contains(err.Error(), cell1) {
			t.Errorf("parallel %d: error %v, want cell 1's refusal of %s", par, err, cell1)
		}
	}

	_, err = DisksSmall(DisksConfig{Disks: []int{4}}, Options{Kernel: cost.Kernel(99), SampleLimit: 50})
	if err == nil {
		t.Fatal("unknown kernel did not propagate an error")
	}
}

// The engine starts its cells largest kernel tables first: the start
// order is a permutation of the cells, non-increasing in the table
// bytes of the kernel each cell's method gets, and in input order among
// equal sizes.
func TestSweepScheduleLargestFirst(t *testing.T) {
	g := grid.MustNew(64, 64)
	check := func(name string, opt Options, methods []alloc.Method, workloads []query.Workload, cells []evalCell) []int {
		t.Helper()
		_, work := measure(methods, workloads, cells)
		kernels, order := opt.schedule(methods, work, cells)
		started := make([]bool, len(cells))
		for _, i := range order {
			if i < 0 || i >= len(cells) || started[i] {
				t.Fatalf("%s: start order %v is not a permutation of %d cells", name, order, len(cells))
			}
			started[i] = true
		}
		if len(order) != len(cells) {
			t.Fatalf("%s: start order %v is not a permutation of %d cells", name, order, len(cells))
		}
		size := func(i int) int64 {
			m := cells[i].method
			return tableBytes(methods[m], kernels[m])
		}
		for p := 1; p < len(order); p++ {
			a, b := order[p-1], order[p]
			if size(a) < size(b) || size(a) == size(b) && a > b {
				t.Fatalf("%s: cell %d (%d table bytes) starts before cell %d (%d)", name, a, size(a), b, size(b))
			}
		}
		return order
	}

	// A disk sweep lists its (M, method) cells by ascending M, one
	// workload for all. Its large queries get prefix tables, M·65²·4
	// bytes, so the cells start by descending M; its small queries
	// walk, one table of the same size for every M, so they keep the
	// list's order.
	disks := []int{4, 8, 16, 32}
	sets, err := Options{}.methodSets(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	var methods []alloc.Method
	var cells []evalCell
	for _, set := range sets {
		for _, m := range set {
			cells = append(cells, evalCell{method: len(methods)})
			methods = append(methods, m)
		}
	}
	for _, band := range [][2]int{{16, 48}, {1, 4}} {
		w, err := query.RandomRange(g, band[0], band[1], 400, 1)
		if err != nil {
			t.Fatal(err)
		}
		order := check(w.Name, Options{}, methods, []query.Workload{w}, cells)
		for p := 1; p < len(order); p++ {
			prev, cur := methods[order[p-1]].Disks(), methods[order[p]].Disks()
			if band[0] == 16 && prev < cur || band[0] == 1 && order[p] < order[p-1] {
				t.Fatalf("%s: start order %v", w.Name, order)
			}
		}
	}

	// evaluateGrid's cells share one grid and M, so every size ties
	// under each kernel and the order is the input order.
	workloads, err := query.SizeSweep(g, []int{4, 64, 1024}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := alloc.PaperSet(g, 16)
	var grid []evalCell
	for i := range workloads {
		for j := range plain {
			grid = append(grid, evalCell{method: j, workload: i})
		}
	}
	for _, kernel := range []cost.Kernel{cost.KernelAuto, cost.KernelWalk, cost.KernelPrefix} {
		order := check("evaluateGrid/"+kernel.String(), Options{Kernel: kernel}, plain, workloads, grid)
		for p, i := range order {
			if p != i {
				t.Fatalf("evaluateGrid/%v: start order %v, want input order", kernel, order)
			}
		}
	}
}

// countingMethod counts DiskOf calls: every kernel build materializes
// the allocation with exactly Buckets() of them, and no kernel calls
// DiskOf again while answering queries.
type countingMethod struct {
	alloc.Method
	calls atomic.Int64
}

func (c *countingMethod) DiskOf(co grid.Coord) int {
	c.calls.Add(1)
	return c.Method.DiskOf(co)
}

// The engine builds each method's kernel once per call, however many
// workloads and workers share it — not once per (method, workload) cell.
func TestSweepBuildsOncePerMethod(t *testing.T) {
	g := grid.MustNew(16, 16)
	workloads, err := query.SizeSweep(g, []int{1, 4, 16, 36, 64}, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := alloc.PaperSet(g, 8)
	want, err := evaluateGrid(plain, workloads, Options{Parallel: 1, Kernel: cost.KernelWalk})
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []cost.Kernel{cost.KernelWalk, cost.KernelPrefix} {
		for _, par := range []int{1, 2, 7} {
			counted := make([]*countingMethod, len(plain))
			methods := make([]alloc.Method, len(plain))
			for i, m := range plain {
				counted[i] = &countingMethod{Method: m}
				methods[i] = counted[i]
			}
			got, err := evaluateGrid(methods, workloads, Options{Parallel: par, Kernel: kernel})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kernel %v parallel %d: rows differ from the serial walk", kernel, par)
			}
			for _, c := range counted {
				if n := c.calls.Load(); n != int64(g.Buckets()) {
					t.Errorf("kernel %v parallel %d: %s made %d DiskOf calls over %d workloads, want %d (one build)",
						kernel, par, c.Name(), n, len(workloads), g.Buckets())
				}
			}
		}
	}
}
