package alloc

import (
	"fmt"

	"decluster/internal/grid"
	"decluster/internal/hilbert"
)

// HCAM is the Hilbert-curve allocation method of Faloutsos & Bhagwat
// (PDIS 1993): the grid's buckets are linearized by the order a Hilbert
// space-filling curve visits them, and disks are assigned round-robin
// along that order. Because the curve has strong clustering properties
// (Jagadish 1990), buckets close in space receive different disks.
//
// For grids that are not full power-of-two hypercubes, the curve of the
// smallest enclosing hypercube is restricted to the grid and the
// surviving visit order is used, so the round-robin assignment stays
// perfectly balanced on any grid shape.
type HCAM struct {
	g     *grid.Grid
	m     int
	ranks []int // bucket number → Hilbert visit rank
}

// NewHCAM constructs a Hilbert-curve allocation of g over m disks. The
// full rank table is precomputed, costing O(B log B) time and O(B)
// memory in the bucket count B.
func NewHCAM(g *grid.Grid, m int) (*HCAM, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	ranks, err := hilbert.RankTable(g)
	if err != nil {
		return nil, fmt.Errorf("alloc: HCAM: %w", err)
	}
	return &HCAM{g: g, m: m, ranks: ranks}, nil
}

// WithDisks returns the Hilbert allocation of the same grid over m
// disks. The visit ranks depend on the grid only, so the new method
// shares h's rank table instead of recomputing it.
func (h *HCAM) WithDisks(m int) (*HCAM, error) {
	if err := checkArgs(h.g, m); err != nil {
		return nil, err
	}
	return &HCAM{g: h.g, m: m, ranks: h.ranks}, nil
}

// Name implements Method.
func (h *HCAM) Name() string { return "HCAM" }

// Grid implements Method.
func (h *HCAM) Grid() *grid.Grid { return h.g }

// Disks implements Method.
func (h *HCAM) Disks() int { return h.m }

// Rank returns the Hilbert visit rank of the bucket at c.
func (h *HCAM) Rank(c grid.Coord) int {
	return h.ranks[h.g.Linearize(c)]
}

// DiskOf implements Method.
func (h *HCAM) DiskOf(c grid.Coord) int {
	return h.ranks[h.g.Linearize(c)] % h.m
}
