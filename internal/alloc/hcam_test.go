package alloc

import (
	"slices"
	"testing"

	"decluster/internal/grid"
)

func TestNewHCAMValidation(t *testing.T) {
	if _, err := NewHCAM(nil, 4); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := NewHCAM(grid.MustNew(4, 4), 0); err == nil {
		t.Error("zero disks accepted")
	}
}

func TestHCAMRoundRobinAlongCurve(t *testing.T) {
	g := grid.MustNew(8, 8)
	h, err := NewHCAM(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "HCAM" || h.Disks() != 5 || h.Grid() != g {
		t.Error("accessors wrong")
	}
	// Reconstruct the visit order from ranks and check disks are dealt
	// round-robin.
	byRank := make([]grid.Coord, g.Buckets())
	g.Each(func(c grid.Coord) bool {
		byRank[h.Rank(c)] = c.Clone()
		return true
	})
	for rank, c := range byRank {
		if got := h.DiskOf(c); got != rank%5 {
			t.Fatalf("rank %d bucket %v on disk %d, want %d", rank, c, got, rank%5)
		}
	}
}

func TestHCAMPerfectBalanceAnyGrid(t *testing.T) {
	// Rank-based round robin is balanced even on ragged grids.
	for _, dims := range [][]int{{8, 8}, {5, 7}, {6, 10}, {3, 3, 3}} {
		g := grid.MustNew(dims...)
		h, err := NewHCAM(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !IsBalanced(h) {
			t.Fatalf("HCAM unbalanced on grid %v: %v", g, LoadHistogram(h))
		}
	}
}

// Consecutive buckets along the curve are spatial neighbors, so any
// M consecutive curve positions have M distinct disks; in particular
// the 2×2 block at the curve's start is fully spread for M ≥ 4.
func TestHCAMSpreadsCurvePrefix(t *testing.T) {
	g := grid.MustNew(8, 8)
	h, _ := NewHCAM(g, 4)
	byRank := make([]grid.Coord, g.Buckets())
	g.Each(func(c grid.Coord) bool {
		byRank[h.Rank(c)] = c.Clone()
		return true
	})
	seen := make(map[int]bool)
	for rank := 0; rank < 4; rank++ {
		seen[h.DiskOf(byRank[rank])] = true
	}
	if len(seen) != 4 {
		t.Fatalf("first 4 curve positions hit %d disks, want 4", len(seen))
	}
}

func TestHCAMRanksAreCurveOrder(t *testing.T) {
	// On a full power-of-two square the rank must equal the Hilbert
	// index, so the order-1 curve corners get ranks 0..3 in curve order.
	g := grid.MustNew(2, 2)
	h, _ := NewHCAM(g, 4)
	want := map[string]int{
		"<0,0>": 0,
		"<0,1>": 1,
		"<1,1>": 2,
		"<1,0>": 3,
	}
	g.Each(func(c grid.Coord) bool {
		if h.Rank(c) != want[c.String()] {
			t.Fatalf("bucket %v rank %d, want %d", c, h.Rank(c), want[c.String()])
		}
		return true
	})
}

// WithDisks re-deals the same Hilbert order over another disk count:
// the same allocation NewHCAM computes, over the one shared rank table.
func TestHCAMWithDisksSharesRanks(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {5, 7}} {
		g := grid.MustNew(dims...)
		base, err := NewHCAM(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, 4, 7} {
			h, err := base.WithDisks(m)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _ := NewHCAM(g, m)
			if h.Disks() != m || h.Grid() != g || !slices.Equal(Table(h), Table(fresh)) {
				t.Fatalf("%v: WithDisks(%d) differs from NewHCAM", g, m)
			}
			if &h.ranks[0] != &base.ranks[0] {
				t.Fatalf("%v: WithDisks(%d) copied the rank table", g, m)
			}
		}
		if base.Disks() != 3 {
			t.Fatal("WithDisks changed its receiver")
		}
		if _, err := base.WithDisks(0); err == nil {
			t.Error("zero disks accepted")
		}
	}
}
