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

func TestCurveAllocValidation(t *testing.T) {
	if _, err := NewZCAM(nil, 4); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := NewGCAM(grid.MustNew(4, 4), 0); err == nil {
		t.Error("zero disks accepted")
	}
}

func TestCurveAllocBalanced(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {5, 7}, {4, 4, 4}} {
		g := grid.MustNew(dims...)
		for _, ctor := range []func(*grid.Grid, int) (*RankDeal, error){NewZCAM, NewGCAM} {
			m, err := ctor(g, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !IsBalanced(m) {
				t.Errorf("%s unbalanced on %v: %v", m.Name(), g, LoadHistogram(m))
			}
		}
	}
}

func TestCurveAllocRoundRobin(t *testing.T) {
	g := grid.MustNew(8, 8)
	z, err := NewZCAM(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.Each(func(c grid.Coord) bool {
		if z.DiskOf(c) != z.Rank(c)%5 {
			t.Fatalf("bucket %v: disk %d != rank %d mod 5", c, z.DiskOf(c), z.Rank(c))
		}
		return true
	})
}

func TestCurveAllocNames(t *testing.T) {
	g := grid.MustNew(4, 4)
	z, _ := NewZCAM(g, 2)
	gc, _ := NewGCAM(g, 2)
	if z.Name() != "ZCAM" || gc.Name() != "GCAM" {
		t.Error("names wrong")
	}
	if z.Grid() != g || z.Disks() != 2 {
		t.Error("accessors wrong")
	}
}

func TestCurveAllocRegistered(t *testing.T) {
	g := grid.MustNew(8, 8)
	for _, name := range []string{"ZCAM", "GCAM"} {
		m, err := Build(name, g, 4)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Build(%s).Name() = %s", name, m.Name())
		}
	}
}

// meanRT computes the mean busiest-disk load of every placement of the
// shape (inline to avoid importing the cost package, which depends on
// alloc).
func meanRT(t *testing.T, m Method, sides []int) float64 {
	t.Helper()
	g := m.Grid()
	sum, n := 0, 0
	_, err := g.Placements(sides, func(r grid.Rect) bool {
		loads := make(map[int]int)
		max := 0
		grid.EachRect(r, func(c grid.Coord) bool {
			loads[m.DiskOf(c)]++
			if loads[m.DiskOf(c)] > max {
				max = loads[m.DiskOf(c)]
			}
			return true
		})
		sum += max
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(sum) / float64(n)
}

// The HCAM design rationale, measured: the Z-order curve is perfectly
// aligned to dyadic blocks (it even beats Hilbert on 2×2 queries at
// power-of-two M) but falls off a cliff on non-aligned queries, where
// Hilbert's continuity keeps it strong. Both halves of that trade-off
// are pinned here.
func TestHilbertRobustWhereZOrderCliffs(t *testing.T) {
	g := grid.MustNew(32, 32)
	h, _ := NewHCAM(g, 8)
	z, _ := NewZCAM(g, 8)
	gc, _ := NewGCAM(g, 8)
	// Non-dyadic 5×5 queries at M=8: Hilbert must beat both.
	rh := meanRT(t, h, []int{5, 5})
	rz := meanRT(t, z, []int{5, 5})
	rg := meanRT(t, gc, []int{5, 5})
	if rh >= rz || rh >= rg {
		t.Errorf("5×5: HCAM %.3f not best (ZCAM %.3f, GCAM %.3f)", rh, rz, rg)
	}
	// Dyadic 2×2 queries: Z-order's alignment advantage is real.
	zh := meanRT(t, z, []int{2, 2})
	if zh != 1.0 {
		t.Errorf("2×2 under ZCAM at M=8: %.3f, want exactly 1 (dyadic alignment)", zh)
	}
}

// At a prime disk count the dyadic alignment disappears and Hilbert's
// clustering wins even on 2×2 queries.
func TestHilbertBestAtPrimeDisks(t *testing.T) {
	g := grid.MustNew(32, 32)
	h, _ := NewHCAM(g, 7)
	z, _ := NewZCAM(g, 7)
	gc, _ := NewGCAM(g, 7)
	rh := meanRT(t, h, []int{2, 2})
	rz := meanRT(t, z, []int{2, 2})
	rg := meanRT(t, gc, []int{2, 2})
	if rh >= rz || rh >= rg {
		t.Errorf("2×2 at M=7: HCAM %.3f not best (ZCAM %.3f, GCAM %.3f)", rh, rz, rg)
	}
}
