// Package alloc implements the grid-based multi-attribute declustering
// methods evaluated in Himatsingka & Srivastava (ICDE 1994): disk
// modulo (DM/CMD) and its generalizations (GDM, BDM), field-wise XOR
// (FX) and its extension for narrow fields (ExFX), the error-correcting
// code method (ECC), and the Hilbert-curve allocation method (HCAM),
// plus random and explicit-table allocations used as baselines.
//
// A declustering method assigns every bucket of a Cartesian product
// file (a k-dimensional grid) to one of M disks. All methods here are
// static: the mapping is fixed at construction and never reassigns
// buckets, matching the paper's setting where "the allocation of
// buckets to disks does not change over time".
package alloc

import (
	"fmt"

	"decluster/internal/grid"
)

// Method maps grid buckets to disks.
type Method interface {
	// Name identifies the method (e.g. "DM", "FX", "HCAM").
	Name() string
	// Grid returns the grid the method declusters.
	Grid() *grid.Grid
	// Disks returns the number of disks M.
	Disks() int
	// DiskOf returns the disk, in [0, Disks()), storing the bucket at
	// coordinate c. It panics if c is not a valid coordinate of Grid()
	// (matching grid.Grid.Linearize); validate untrusted coordinates
	// with Grid().Contains first.
	DiskOf(c grid.Coord) int
}

// checkArgs validates the common constructor arguments.
func checkArgs(g *grid.Grid, m int) error {
	if g == nil {
		return fmt.Errorf("alloc: nil grid")
	}
	if m < 1 {
		return fmt.Errorf("alloc: need at least one disk, got %d", m)
	}
	return nil
}

// Table materializes the full allocation of a method as a slice indexed
// by row-major bucket number.
func Table(m Method) []int {
	out := make([]int, 0, m.Grid().Buckets())
	EachRow(m, func(_ grid.Coord, row []int) { // row-major: visit order is bucket number
		out = append(out, row...)
	})
	return out
}

// LoadHistogram counts, per disk, how many buckets the method assigns
// to it. A perfectly balanced allocation has every count within one of
// Buckets()/Disks().
func LoadHistogram(m Method) []int {
	counts := make([]int, m.Disks())
	EachRow(m, func(_ grid.Coord, row []int) {
		for _, d := range row {
			counts[d]++
		}
	})
	return counts
}

// IsBalanced reports whether the method's per-disk bucket counts differ
// by at most one — the weakest property any reasonable declustering
// method must have.
func IsBalanced(m Method) bool {
	h := LoadHistogram(m)
	min, max := h[0], h[0]
	for _, v := range h[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max-min <= 1
}

// bitsExact returns log2(n) when n is a power of two (0 for n = 1), and
// an error otherwise.
func bitsExact(n int) (int, error) {
	if n < 1 || n&(n-1) != 0 {
		return 0, fmt.Errorf("alloc: %d is not a power of two", n)
	}
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b, nil
}
