package sfc

import (
	"testing"
	"testing/quick"

	"decluster/internal/grid"
)

func TestHilbertShapeValidation(t *testing.T) {
	cases := []struct {
		n, b int
		ok   bool
	}{
		{2, 5, true},
		{0, 3, false},
		{2, 0, false},
		{8, 8, false}, // 64 bits > 63
		{7, 9, true},  // 63 bits exactly
		{1, 1, true},
	}
	for _, tc := range cases {
		_, err := HilbertIndex(make([]int, tc.n), tc.b)
		if (err == nil) != tc.ok {
			t.Errorf("HilbertIndex(n=%d, b=%d) err=%v, want ok=%v", tc.n, tc.b, err, tc.ok)
		}
		_, err = HilbertCoords(0, tc.n, tc.b, nil)
		if (err == nil) != tc.ok {
			t.Errorf("HilbertCoords(0, n=%d, b=%d) err=%v, want ok=%v", tc.n, tc.b, err, tc.ok)
		}
	}
}

// The 2-D order-1 Hilbert curve visits (0,0) (0,1) (1,1) (1,0).
func TestHilbertOrder1Curve2D(t *testing.T) {
	want := [][]int{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for idx, coords := range want {
		got, err := HilbertCoords(int64(idx), 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != coords[0] || got[1] != coords[1] {
			t.Errorf("HilbertCoords(%d) = %v, want %v", idx, got, coords)
		}
	}
}

func TestHilbertIndexCoordsInverse(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{1, 6}, {2, 4}, {3, 3}, {4, 2}, {5, 2}} {
		coords := make([]int, tc.n)
		for idx := int64(0); idx < 1<<uint(tc.n*tc.b); idx++ {
			coords, _ = HilbertCoords(idx, tc.n, tc.b, coords)
			back, err := HilbertIndex(coords, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if back != idx {
				t.Fatalf("n=%d b=%d: HilbertIndex(HilbertCoords(%d)) = %d", tc.n, tc.b, idx, back)
			}
		}
	}
}

// The curve must visit every point exactly once.
func TestHilbertCurveIsBijection(t *testing.T) {
	seen := make(map[[2]int]bool)
	for idx := int64(0); idx < 64; idx++ {
		coords, err := HilbertCoords(idx, 2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := [2]int{coords[0], coords[1]}
		if seen[key] {
			t.Fatalf("point %v visited twice", coords)
		}
		seen[key] = true
	}
	if len(seen) != 64 {
		t.Fatalf("visited %d points, want 64", len(seen))
	}
}

// Consecutive curve positions must be adjacent in space (the defining
// continuity property — this is what gives HCAM its clustering).
func TestHilbertCurveContinuity(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{2, 4}, {3, 3}} {
		prev, _ := HilbertCoords(0, tc.n, tc.b, nil)
		for idx := int64(1); idx < 1<<uint(tc.n*tc.b); idx++ {
			cur, _ := HilbertCoords(idx, tc.n, tc.b, nil)
			dist := 0
			for i := range cur {
				d := cur[i] - prev[i]
				if d < 0 {
					d = -d
				}
				dist += d
			}
			if dist != 1 {
				t.Fatalf("n=%d b=%d: positions %d→%d jump distance %d (from %v to %v)",
					tc.n, tc.b, idx-1, idx, dist, prev, cur)
			}
			prev = cur
		}
	}
}

func TestHilbertIndexErrors(t *testing.T) {
	if _, err := HilbertIndex([]int{4, 0}, 2); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	if _, err := HilbertIndex([]int{0, -1}, 2); err == nil {
		t.Error("negative coordinate accepted")
	}
	if _, err := HilbertCoords(-1, 2, 2, nil); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := HilbertCoords(16, 2, 2, nil); err == nil {
		t.Error("overflow index accepted")
	}
}

// Ranks restricted to a subgrid preserve the curve's visiting order:
// consecutive ranks correspond to increasing curve indexes, taken on
// the smallest enclosing hypercube.
func TestHilbertRankTableOrderPreserving(t *testing.T) {
	checkHilbertOrder(t, grid.MustNew(5, 6), 3)
}

// An 8×3 grid needs 3 bits on its long axis and 2 on its short one; the
// enclosing hypercube takes the larger, so its ranks follow the b = 3
// curve.
func TestHilbertForGrid(t *testing.T) {
	g := grid.MustNew(8, 3)
	if g.K() != 2 || g.CubeBits() != 3 {
		t.Fatalf("8×3 grid: %d dims, %d cube bits; want 2, 3", g.K(), g.CubeBits())
	}
	checkHilbertOrder(t, g, 3)
}

func TestHilbertRankTablePermutation(t *testing.T) {
	checkRankPermutation(t, Hilbert, [][]int{{8, 8}, {4, 8}, {5, 7}, {4, 4, 4}, {3, 5, 2}})
}

// checkHilbertOrder fails t unless the Hilbert ranks of the 2-D grid g
// list its buckets in increasing order of their b-bit curve index.
func checkHilbertOrder(t *testing.T, g *grid.Grid, b int) {
	t.Helper()
	ranks, err := RankTable(g, Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	byRank := make([]int64, g.Buckets())
	g.Each(func(co grid.Coord) bool {
		byRank[ranks[g.Linearize(co)]], _ = HilbertIndex([]int{co[0], co[1]}, b)
		return true
	})
	for i := 1; i < len(byRank); i++ {
		if byRank[i] <= byRank[i-1] {
			t.Fatalf("%v: rank %d has curve index %d ≤ previous %d", g, i, byRank[i], byRank[i-1])
		}
	}
}

// For a grid that exactly fills the hypercube, rank equals curve index.
func TestHilbertRankEqualsIndexOnCube(t *testing.T) {
	g := grid.MustNew(8, 8)
	ranks, err := RankTable(g, Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	g.Each(func(co grid.Coord) bool {
		idx, _ := HilbertIndex([]int{co[0], co[1]}, 3)
		if ranks[g.Linearize(co)] != int(idx) {
			t.Fatalf("bucket %v: rank %d != index %d", co, ranks[g.Linearize(co)], idx)
		}
		return true
	})
}

// Property: HilbertCoords∘HilbertIndex is the identity on random valid
// coordinates.
func TestHilbertQuickIndexInverse(t *testing.T) {
	f := func(a, b, d uint) bool {
		coords := []int{int(a % 32), int(b % 32), int(d % 32)}
		idx, err := HilbertIndex(coords, 5)
		if err != nil {
			return false
		}
		back, err := HilbertCoords(idx, 3, 5, nil)
		if err != nil {
			return false
		}
		return back[0] == coords[0] && back[1] == coords[1] && back[2] == coords[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
