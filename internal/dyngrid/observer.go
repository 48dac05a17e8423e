package dyngrid

import (
	"decluster/internal/alloc"
	"decluster/internal/grid"
)

// Observer receives the file's structural-change notifications — the
// hook that lets a derived structure (a maintained cost kernel, an
// aggregate index) track the cell→disk mapping incrementally instead of
// rebuilding from scratch after every insert.
//
// CellMoved fires once per directory cell whose owning disk changed
// (a split repointing the upper half to a bucket on another disk). The
// cell slice is the iteration scratch: use it during the call, do not
// retain it. LayerInserted fires after a directory doubling — the only
// way the file ever changes shape: cell layer p of the axis now exists
// twice, as layers p and p+1 owned by the same buckets, and every layer
// above has shifted up by one. Cell coordinates from before the call
// are meaningless after it, but the change is exact, so per-cell state
// can be shifted rather than rebuilt (a summed-area table takes it as
// one in-place pass, cost.PrefixEvaluator.InsertLayer). During one
// Insert, a doubling fires LayerInserted first and the follow-up
// split's CellMoved calls refer to the new shape.
//
// Callbacks run synchronously inside Insert on its goroutine.
type Observer interface {
	CellMoved(cell []int, fromDisk, toDisk int)
	LayerInserted(axis, p int)
}

// SetObserver installs o (nil detaches). The observer starts receiving
// notifications for mutations after this call; attach before inserting
// to observe the whole history, or rebuild derived state at attach
// time.
func (f *File) SetObserver(o Observer) { f.obs = o }

// methodView adapts the live file to alloc.Method: Grid tracks the
// current directory shape and DiskOf answers from the live directory.
// Unlike the static methods this mapping mutates — pair it with
// cost.MaintainedEvaluator (fed by an Observer) rather than a
// build-once kernel. Like the file itself, not safe for concurrent use.
type methodView struct {
	f    *File
	name string
	// g is the grid of the directory as it stood after doubles
	// doublings — the only event that changes its shape.
	g       *grid.Grid
	doubles int
}

// AsMethod returns a live alloc.Method view of the file's directory.
func (f *File) AsMethod(name string) alloc.Method {
	return &methodView{f: f, name: name}
}

func (m *methodView) Name() string { return m.name }

// Grid returns the directory's current shape, rebuilding the cached
// grid only after a doubling.
func (m *methodView) Grid() *grid.Grid {
	if m.g == nil || m.doubles != m.f.doubles {
		m.g = grid.MustNew(m.f.dims...)
		m.doubles = m.f.doubles
	}
	return m.g
}

func (m *methodView) Disks() int { return m.f.disks }

func (m *methodView) DiskOf(c grid.Coord) int {
	if !m.Grid().Contains(c) {
		panic("dyngrid: DiskOf coordinate outside directory")
	}
	return m.f.buckets[m.f.bucketAt(c)].disk
}
