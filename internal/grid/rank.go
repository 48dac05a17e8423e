package grid

import (
	"cmp"
	"slices"
)

// CubeBits returns the bits per axis of the smallest power-of-two
// hypercube enclosing g — the widest entry of BitsPerAxis. It is the
// order of the space-filling curves that linearize g.
func (g *Grid) CubeBits() int {
	b := 1
	for _, d := range g.dims {
		if ab := bitsFor(d); ab > b {
			b = ab
		}
	}
	return b
}

// CurveRanks returns, for every bucket of g (indexed by row-major
// bucket number), its rank in the order a space-filling curve visits
// the grid: the bucket with the smallest index has rank 0, and so on.
// index must map each coordinate of the enclosing 2^CubeBits hypercube
// to a distinct position in [0, 2^(K·CubeBits)); the coordinate slice
// it receives is reused between calls. A grid that fills the hypercube
// needs no sort — every position is taken, so the rank is the index.
func (g *Grid) CurveRanks(index func(coords []int) int64) []int {
	ranks := make([]int, g.buckets)
	c := make(Coord, len(g.dims))
	if g.buckets == 1<<uint(len(g.dims)*g.CubeBits()) {
		for b := range ranks {
			ranks[b] = int(index(c))
			g.next(c)
		}
		return ranks
	}
	type key struct {
		idx    int64
		bucket int
	}
	keys := make([]key, g.buckets)
	for b := range keys {
		keys[b] = key{index(c), b}
		g.next(c)
	}
	slices.SortFunc(keys, func(a, b key) int { return cmp.Compare(a.idx, b.idx) })
	for rank, k := range keys {
		ranks[k.bucket] = rank
	}
	return ranks
}
