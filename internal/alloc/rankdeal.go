package alloc

import (
	"fmt"
	"math/rand"

	"decluster/internal/grid"
	"decluster/internal/sfc"
)

// RankDeal deals disks round-robin along a visit order of the buckets:
// the bucket of rank r goes to disk r mod M, so per-disk loads differ
// by at most one on any grid shape. The order is what tells the methods
// apart: HCAM, ZCAM and GCAM visit buckets along a space-filling curve,
// Random in a seeded shuffle.
type RankDeal struct {
	deal // bucket number → visit rank; shared between disk counts
	name string
}

// NewHCAM constructs the Hilbert-curve allocation method of Faloutsos &
// Bhagwat (PDIS 1993): the grid's buckets are visited in the order a
// Hilbert curve visits them. Because the curve has strong clustering
// properties (Jagadish 1990), buckets close in space receive different
// disks. On a grid that is not a full power-of-two hypercube, the curve
// of the smallest enclosing hypercube is restricted to the grid. The
// rank table costs O(B) time and memory in the bucket count B.
func NewHCAM(g *grid.Grid, m int) (*RankDeal, error) {
	return newCurveDeal("HCAM", g, m, sfc.Hilbert)
}

// NewZCAM constructs the Z-order (Morton) curve allocation, one of the
// curves the HCAM authors evaluated before choosing Hilbert: the same
// deal along a curve with weaker clustering, which the curve ablation
// benchmark quantifies.
func NewZCAM(g *grid.Grid, m int) (*RankDeal, error) {
	return newCurveDeal("ZCAM", g, m, sfc.Morton)
}

// NewGCAM constructs the Gray-code curve allocation, the other ablation
// curve beside ZCAM.
func NewGCAM(g *grid.Grid, m int) (*RankDeal, error) {
	return newCurveDeal("GCAM", g, m, sfc.Gray)
}

func newCurveDeal(name string, g *grid.Grid, m int, kind sfc.Kind) (*RankDeal, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	ranks, err := sfc.RankTable(g, kind)
	if err != nil {
		return nil, fmt.Errorf("alloc: %s: %w", name, err)
	}
	return &RankDeal{deal: newDeal(g, m, ranks), name: name}, nil
}

// NewRandom builds a balanced pseudo-random allocation: the visit order
// is a permutation of the bucket numbers shuffled deterministically from
// seed. Random allocation is the classic straw-man baseline: balanced
// overall but with no locality structure, so nearby buckets frequently
// collide.
func NewRandom(g *grid.Grid, m int, seed int64) (*RankDeal, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(seed)).Perm(g.Buckets())
	ranks := make([]int, len(perm))
	for rank, bucket := range perm {
		ranks[bucket] = rank
	}
	return &RankDeal{deal: newDeal(g, m, ranks), name: "Random"}, nil
}

// WithDisks returns the same deal over m disks. The visit ranks do not
// depend on the disk count, so the new method shares d's rank table
// instead of recomputing it.
func (d *RankDeal) WithDisks(m int) (*RankDeal, error) {
	if err := checkArgs(d.g, m); err != nil {
		return nil, err
	}
	return &RankDeal{deal: newDeal(d.g, m, d.vals), name: d.name}, nil
}

// Name implements Method.
func (d *RankDeal) Name() string { return d.name }

// Rank returns the visit rank of the bucket at c.
func (d *RankDeal) Rank(c grid.Coord) int {
	return d.vals[d.g.Linearize(c)]
}
