package dyngrid

import (
	"fmt"

	"decluster/internal/alloc"
	"decluster/internal/grid"
)

// MethodAllocator adapts a static grid-based declustering method to
// dynamic bucket creation: the method is laid over a fixed virtual
// grid of the value space, and each new bucket receives the disk the
// method assigns to the virtual cell containing the bucket's center.
// This is how a system keeps the study's declustering schemes while the
// grid file reshapes underneath — the virtual grid is the "fairly
// stable data distribution" snapshot the paper's static allocation
// assumption refers to.
func MethodAllocator(m alloc.Method) (Allocator, error) {
	if m == nil {
		return nil, fmt.Errorf("dyngrid: nil method")
	}
	g := m.Grid()
	cell := make(grid.Coord, g.K()) // the allocator's own scratch
	return func(lo, hi []float64, disks int) int {
		if disks != m.Disks() {
			panic(fmt.Sprintf("dyngrid: method declusterers %d disks, file has %d", m.Disks(), disks))
		}
		for a := 0; a < g.K(); a++ {
			center := lo[a] + (hi[a]-lo[a])/2
			c := int(center * float64(g.Dim(a)))
			if c >= g.Dim(a) {
				c = g.Dim(a) - 1
			}
			if c < 0 {
				c = 0
			}
			cell[a] = c
		}
		return m.DiskOf(cell)
	}, nil
}
