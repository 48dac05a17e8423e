package cost

import (
	"fmt"
	"math"
	"strings"

	"decluster/internal/alloc"
	"decluster/internal/grid"
	"decluster/internal/query"
)

// Kernel selects how response times are computed.
type Kernel int

const (
	// KernelAuto picks the prefix kernel when its tables fit the memory
	// budget and the table walk otherwise. A caller that knows the work
	// ahead (the experiment sweeps) narrows it further with AutoKernel:
	// prefix only where the tables also cost less than walking.
	KernelAuto Kernel = iota
	// KernelWalk forces the table-walk Evaluator (O(volume) per query).
	KernelWalk
	// KernelPrefix forces the summed-area PrefixEvaluator (O(M·2^k) per
	// query); NewKernelEvaluator errors if the tables cannot be built.
	KernelPrefix
)

// String names the kernel as ParseKernel spells it.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelWalk:
		return "walk"
	case KernelPrefix:
		return "prefix"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel parses a kernel name: auto, walk, or prefix.
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "":
		return KernelAuto, nil
	case "walk":
		return KernelWalk, nil
	case "prefix":
		return KernelPrefix, nil
	default:
		return 0, fmt.Errorf("cost: unknown kernel %q (auto, walk, prefix)", s)
	}
}

// DefaultTableBudget bounds the prefix tables KernelAuto will build per
// evaluator: 256 MiB, far above every experiment in the harness (the
// Figure-5 sweeps need ~0.5 MiB) yet low enough that a parallel sweep
// cannot accidentally commit the machine's memory to tables.
const DefaultTableBudget int64 = 256 << 20

// RTEvaluator is the interface every response-time kernel satisfies;
// instances are not safe for concurrent use — one per goroutine.
type RTEvaluator interface {
	// Method returns the evaluated method.
	Method() alloc.Method
	// ResponseTime returns the parallel response time of the query in
	// bucket accesses.
	ResponseTime(r grid.Rect) int
	// Evaluate measures the method over a workload; all kernels return
	// bit-identical Results.
	Evaluate(w query.Workload) Result
}

// NewKernelEvaluator builds the chosen kernel for m. tableBudget caps
// the prefix tables' memory under KernelAuto (≤ 0 selects
// DefaultTableBudget; KernelPrefix ignores the budget and fails only
// when the tables are unrepresentable).
func NewKernelEvaluator(m alloc.Method, k Kernel, tableBudget int64) (RTEvaluator, error) {
	switch k {
	case KernelWalk:
		return NewEvaluator(m), nil
	case KernelPrefix:
		return NewPrefixEvaluator(m)
	case KernelAuto:
		if prefixFitsBudget(m.Grid(), m.Disks(), tableBudget) {
			if e, err := NewPrefixEvaluator(m); err == nil {
				return e, nil
			}
			// Unrepresentable tables despite a generous budget: the
			// walk always works.
		}
		return NewEvaluator(m), nil
	default:
		return nil, fmt.Errorf("cost: unknown kernel %v", k)
	}
}

// prefixFitsBudget reports whether prefix tables for a method over g on
// disks disks fit tableBudget (≤ 0 selects DefaultTableBudget).
func prefixFitsBudget(g *grid.Grid, disks int, tableBudget int64) bool {
	if tableBudget <= 0 {
		tableBudget = DefaultTableBudget
	}
	return PrefixTableBytes(g, disks) <= tableBudget
}

// Work is what a kernel will be asked to answer: a number of queries
// and their total volume Σ|Q|, the walk kernel's bucket probes. The
// sweep engine sums it from the query volumes it measures once per
// workload, the same volumes its cells fold through EvaluateVolumes.
type Work struct {
	Queries int64
	Buckets int64
}

// Add returns the combined work of w and o.
func (w Work) Add(o Work) Work {
	return Work{Queries: w.Queries + o.Queries, Buckets: w.Buckets + o.Buckets}
}

// AutoKernel is KernelAuto for a caller that knows the work ahead: it
// returns KernelPrefix when a method over g on disks disks gets prefix
// tables that fit tableBudget (≤ 0 selects DefaultTableBudget) and cost
// less than walking, KernelWalk otherwise. Building the tables is
// max(1, k−1)·M·Π(d_i+1) counter updates (the fused pass, which
// scatters and takes the prefixes of the last two axes, plus one
// prefix pass per other axis) and each query adds M·2^k counters; the
// walk probes Σ|Q| buckets. The two sides are compared 1:1, with no
// tuning constant. The choice needs only the grid, M and the work, so
// a caller knows each method's kernel, and the size of its tables,
// before building any.
func AutoKernel(g *grid.Grid, disks int, work Work, tableBudget int64) Kernel {
	if !prefixFitsBudget(g, disks, tableBudget) {
		return KernelWalk
	}
	counters := float64(PrefixTableBytes(g, disks) / 4)
	passes := float64(max(1, g.K()-1))
	prefix := passes*counters + float64(disks)*math.Ldexp(float64(work.Queries), g.K())
	if prefix < float64(work.Buckets) {
		return KernelPrefix
	}
	return KernelWalk
}
