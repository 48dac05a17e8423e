package decluster

import (
	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/grid"
)

// Grid describes a Cartesian product file: the number of partitions on
// each attribute. See NewGrid.
type Grid = grid.Grid

// Coord is a bucket coordinate vector <i_1, …, i_k>.
type Coord = grid.Coord

// Rect is an axis-aligned rectangle of buckets — the bucket set a range
// query touches.
type Rect = grid.Rect

// Method maps grid buckets to disks. All declustering schemes implement
// it.
type Method = alloc.Method

// Result aggregates a method's performance over one workload.
type Result = cost.Result

// NewGrid constructs a grid with the given partition counts, one per
// attribute.
func NewGrid(dims ...int) (*Grid, error) { return grid.New(dims...) }

// UniformGrid constructs a k-dimensional grid with side partitions per
// attribute.
func UniformGrid(k, side int) (*Grid, error) { return grid.Uniform(k, side) }

// NewDM constructs the disk modulo (DM/CMD) method: disk =
// (i_1 + … + i_k) mod M.
func NewDM(g *Grid, disks int) (Method, error) { return alloc.NewDM(g, disks) }

// NewGDM constructs the generalized disk modulo method with explicit
// per-attribute coefficients: disk = (a_1 i_1 + … + a_k i_k) mod M.
func NewGDM(g *Grid, disks int, coeffs []int) (Method, error) {
	return alloc.NewGDM(g, disks, coeffs)
}

// NewBDM constructs the binary disk modulo method (DM restricted to
// binary attribute grids).
func NewBDM(g *Grid, disks int) (Method, error) { return alloc.NewBDM(g, disks) }

// NewFX constructs the field-wise XOR method: disk =
// (bits(i_1) ⊕ … ⊕ bits(i_k)) mod M.
func NewFX(g *Grid, disks int) (Method, error) { return alloc.NewFX(g, disks) }

// NewExFX constructs the extended field-wise XOR method for grids whose
// attribute domains are narrower than the disk count.
func NewExFX(g *Grid, disks int) (Method, error) { return alloc.NewExFX(g, disks) }

// NewFXAuto applies the paper's selection rule: FX when every attribute
// has more partitions than disks, ExFX otherwise.
func NewFXAuto(g *Grid, disks int) (Method, error) { return alloc.NewFXAuto(g, disks) }

// NewECC constructs the error-correcting-code method over a
// power-of-two grid.
func NewECC(g *Grid, disks int) (Method, error) { return alloc.NewECC(g, disks) }

// NewHCAM constructs the Hilbert-curve allocation method.
func NewHCAM(g *Grid, disks int) (Method, error) { return alloc.NewHCAM(g, disks) }

// NewZCAM constructs the Z-order (Morton) curve allocation — HCAM's
// mechanism on a weaker curve, provided for ablation.
func NewZCAM(g *Grid, disks int) (Method, error) { return alloc.NewZCAM(g, disks) }

// NewGCAM constructs the Gray-code curve allocation — HCAM's mechanism
// on a weaker curve, provided for ablation.
func NewGCAM(g *Grid, disks int) (Method, error) { return alloc.NewGCAM(g, disks) }

// NewRandom constructs a balanced pseudo-random baseline allocation.
func NewRandom(g *Grid, disks int, seed int64) (Method, error) {
	return alloc.NewRandom(g, disks, seed)
}

// NewTable wraps an explicit bucket→disk table as a method.
func NewTable(name string, g *Grid, disks int, table []int) (Method, error) {
	return alloc.NewTable(name, g, disks, table)
}

// Build constructs a method by registry name (DM, CMD, GDM, BDM, FX,
// ExFX, FX*, ECC, HCAM, Random; case-insensitive).
func Build(name string, g *Grid, disks int) (Method, error) {
	return alloc.Build(name, g, disks)
}

// MethodNames lists the registered method names.
func MethodNames() []string { return alloc.Names() }

// PaperSet constructs the four methods the reproduced paper compares
// (DM/CMD, FX with the ExFX rule, ECC, HCAM), skipping any whose
// structural preconditions the configuration violates.
func PaperSet(g *Grid, disks int) []Method { return alloc.PaperSet(g, disks) }

// AllocationTable materializes a method's full bucket→disk mapping,
// indexed by row-major bucket number.
func AllocationTable(m Method) []int { return alloc.Table(m) }

// LoadHistogram counts buckets per disk under a method.
func LoadHistogram(m Method) []int { return alloc.LoadHistogram(m) }

// IsBalanced reports whether per-disk bucket counts differ by at most
// one.
func IsBalanced(m Method) bool { return alloc.IsBalanced(m) }

// Evaluator is the table-walk response-time kernel: the allocation
// materializes into a flat table once, and each query walks its
// buckets. Not safe for concurrent use; Clone shares the table across
// goroutines.
type Evaluator = cost.Evaluator

// PrefixEvaluator is the summed-area response-time kernel: per-disk
// k-dimensional prefix tables answer any rectangle in O(M·2^k) bucket
// lookups regardless of its volume. Not safe for concurrent use; Clone
// shares the immutable tables across goroutines.
type PrefixEvaluator = cost.PrefixEvaluator

// EvalKernel selects how response times are computed: KernelAuto,
// KernelWalk, or KernelPrefix.
type EvalKernel = cost.Kernel

// RTEvaluator is the interface every response-time kernel satisfies.
type RTEvaluator = cost.RTEvaluator

// Kernel choices for NewKernelEvaluator.
const (
	// KernelAuto picks prefix tables when they fit the memory budget,
	// the table walk otherwise.
	KernelAuto = cost.KernelAuto
	// KernelWalk forces the table-walk Evaluator.
	KernelWalk = cost.KernelWalk
	// KernelPrefix forces the summed-area PrefixEvaluator.
	KernelPrefix = cost.KernelPrefix
)

// NewEvaluator materializes the table-walk kernel for m.
func NewEvaluator(m Method) *Evaluator { return cost.NewEvaluator(m) }

// NewPrefixEvaluator materializes the summed-area kernel for m.
func NewPrefixEvaluator(m Method) (*PrefixEvaluator, error) { return cost.NewPrefixEvaluator(m) }

// NewKernelEvaluator builds the chosen kernel for m; tableBudget caps
// prefix-table memory under KernelAuto (≤ 0 = cost.DefaultTableBudget).
func NewKernelEvaluator(m Method, k EvalKernel, tableBudget int64) (RTEvaluator, error) {
	return cost.NewKernelEvaluator(m, k, tableBudget)
}

// ParseKernel parses a kernel name: auto, walk, or prefix.
func ParseKernel(s string) (EvalKernel, error) { return cost.ParseKernel(s) }

// PrefixTableBytes estimates the memory of a PrefixEvaluator's tables
// for the grid and disk count — the quantity KernelAuto budgets.
func PrefixTableBytes(g *Grid, disks int) int64 { return cost.PrefixTableBytes(g, disks) }

// ResponseTime returns the parallel response time of query r under
// method m, in bucket accesses: the maximum per-disk load.
func ResponseTime(m Method, r Rect) int { return cost.ResponseTime(m, r) }

// DiskLoads returns per-disk bucket loads for query r under method m.
func DiskLoads(m Method, r Rect) []int { return cost.DiskLoads(m, r) }

// OptimalRT returns the lower bound ⌈volume/disks⌉ on any allocation's
// response time.
func OptimalRT(volume, disks int) int { return cost.OptimalRT(volume, disks) }

// IsOptimalFor reports whether m achieves the optimal response time on
// query r.
func IsOptimalFor(m Method, r Rect) bool { return cost.IsOptimalFor(m, r) }
