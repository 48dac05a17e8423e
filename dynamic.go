package decluster

import (
	"decluster/internal/cost"
	"decluster/internal/dyngrid"
	"decluster/internal/grid"
)

// DynamicGridFile is an adaptable grid file (Nievergelt et al. 1984):
// attribute scales grow as data arrives, buckets split on overflow, and
// each new bucket is placed on a disk by a pluggable allocator — the
// dynamic structure whose stable snapshot is the Cartesian product file
// the declustering methods allocate.
type DynamicGridFile = dyngrid.File

// DynamicConfig describes a dynamic grid file.
type DynamicConfig = dyngrid.Config

// BucketAllocator chooses the disk for a freshly created bucket from
// its value-space bounding box.
type BucketAllocator = dyngrid.Allocator

// NewDynamicGridFile creates an empty dynamic grid file.
func NewDynamicGridFile(cfg DynamicConfig) (*DynamicGridFile, error) {
	return dyngrid.New(cfg)
}

// RoundRobinAllocator deals disks to buckets in creation order — the
// baseline dynamic policy.
func RoundRobinAllocator() BucketAllocator { return dyngrid.RoundRobin() }

// MethodBucketAllocator adapts a static declustering method to dynamic
// bucket creation: each new bucket receives the disk the method assigns
// to the virtual grid cell containing the bucket's center.
func MethodBucketAllocator(m Method) (BucketAllocator, error) {
	return dyngrid.MethodAllocator(m)
}

// GridObserver receives a dynamic grid file's structural-change
// notifications — cell disk moves and directory doublings.
type GridObserver = dyngrid.Observer

// MaintainedEvaluator is a response-time kernel kept incrementally
// correct while the underlying cell→disk mapping mutates.
type MaintainedEvaluator = cost.MaintainedEvaluator

// maintainObserver forwards dyngrid structural changes into the
// maintained kernel.
type maintainObserver struct{ me *cost.MaintainedEvaluator }

func (o maintainObserver) CellMoved(cell []int, from, to int) {
	// The file only reports cells of its own directory, so a delta
	// failure is an invariant violation, not an input error.
	if err := o.me.CellMoved(grid.Coord(cell), from, to); err != nil {
		panic(err)
	}
}

func (o maintainObserver) LayerInserted(axis, p int) { o.me.LayerInserted(axis, p) }

// NewDynamicEvaluator attaches a delta-maintained response-time kernel
// to a dynamic grid file: bucket splits fold into the kernel's tables
// as cell moves in O(axis-suffix) each, and a directory doubling as one
// in-place layer insert on the same tables (O(table), no rebuild from
// the directory) — queries between inserts never see stale loads and
// never pay a rebuild. Only a doubling the prefix kernel cannot follow
// (walk kernel live, tables past the budget or unrepresentable)
// re-tiles on the next query. The evaluator observes the file from
// this call on (it replaces any observer installed earlier); kernel and
// budget choose tables as in NewKernelEvaluator. Not safe for
// concurrent use, like the file itself.
func NewDynamicEvaluator(f *DynamicGridFile, name string, k EvalKernel, tableBudget int64) (*MaintainedEvaluator, error) {
	me, err := cost.NewMaintainedEvaluator(f.AsMethod(name), k, tableBudget)
	if err != nil {
		return nil, err
	}
	f.SetObserver(maintainObserver{me})
	return me, nil
}
