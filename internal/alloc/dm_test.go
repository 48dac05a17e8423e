package alloc

import (
	"testing"

	"decluster/internal/grid"
)

func TestNewDMValidation(t *testing.T) {
	g := grid.MustNew(4, 4)
	if _, err := NewDM(nil, 4); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := NewDM(g, 0); err == nil {
		t.Error("zero disks accepted")
	}
	if _, err := NewDM(g, 1); err != nil {
		t.Error("single disk rejected")
	}
}

func TestDMFormula(t *testing.T) {
	g := grid.MustNew(8, 8)
	dm, err := NewDM(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		c    grid.Coord
		want int
	}{
		{grid.Coord{0, 0}, 0},
		{grid.Coord{1, 2}, 3},
		{grid.Coord{7, 7}, 4}, // 14 mod 5
		{grid.Coord{3, 2}, 0},
	}
	for _, tc := range cases {
		if got := dm.DiskOf(tc.c); got != tc.want {
			t.Errorf("DiskOf(%v) = %d, want %d", tc.c, got, tc.want)
		}
	}
	if dm.Name() != "DM" || dm.Disks() != 5 || dm.Grid() != g {
		t.Error("accessors wrong")
	}
}

func TestDMPanicsOnBadCoord(t *testing.T) {
	dm, _ := NewDM(grid.MustNew(2, 2), 2)
	defer func() {
		if recover() == nil {
			t.Error("DiskOf out-of-range did not panic")
		}
	}()
	dm.DiskOf(grid.Coord{2, 0})
}

// Anti-diagonals are DM's signature: all buckets with equal coordinate
// sum share a disk.
func TestDMAntiDiagonalInvariant(t *testing.T) {
	g := grid.MustNew(6, 6)
	dm, _ := NewDM(g, 4)
	g.Each(func(c grid.Coord) bool {
		sum := c[0] + c[1]
		if dm.DiskOf(c) != sum%4 {
			t.Fatalf("bucket %v: disk %d, want %d", c, dm.DiskOf(c), sum%4)
		}
		return true
	})
}

// A 1×j row query must hit j distinct disks (j ≤ M): the DM optimality
// property for single-attribute ranges.
func TestDMRowQueryDistinct(t *testing.T) {
	g := grid.MustNew(16, 16)
	dm, _ := NewDM(g, 8)
	for row := 0; row < 16; row++ {
		seen := make(map[int]bool)
		for col := 0; col < 8; col++ {
			seen[dm.DiskOf(grid.Coord{row, col})] = true
		}
		if len(seen) != 8 {
			t.Fatalf("row %d: %d distinct disks in 8-bucket row query, want 8", row, len(seen))
		}
	}
}

func TestGDMValidation(t *testing.T) {
	g := grid.MustNew(4, 4)
	if _, err := NewGDM(g, 4, []int{1}); err == nil {
		t.Error("wrong coefficient arity accepted")
	}
	if _, err := NewGDM(g, 0, []int{1, 1}); err == nil {
		t.Error("zero disks accepted")
	}
	if _, err := NewGDM(nil, 4, []int{1, 1}); err == nil {
		t.Error("nil grid accepted")
	}
}

func TestGDMFormula(t *testing.T) {
	g := grid.MustNew(8, 8)
	gdm, err := NewGDM(g, 7, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := gdm.DiskOf(grid.Coord{1, 1}); got != 5 {
		t.Errorf("DiskOf(<1,1>) = %d, want 5", got)
	}
	if got := gdm.DiskOf(grid.Coord{4, 2}); got != (8+6)%7 {
		t.Errorf("DiskOf(<4,2>) = %d, want %d", got, (8+6)%7)
	}
	if gdm.Name() != "GDM" {
		t.Error("name wrong")
	}
}

func TestGDMNegativeCoefficientsReduced(t *testing.T) {
	g := grid.MustNew(4, 4)
	gdm, err := NewGDM(g, 5, []int{-1, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 1}
	got := gdm.Coefficients()
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Coefficients = %v, want %v", got, want)
	}
	// -1·2 + 6·3 = 16 ≡ 1 (mod 5)
	if d := gdm.DiskOf(grid.Coord{2, 3}); d != 1 {
		t.Errorf("DiskOf(<2,3>) = %d, want 1", d)
	}
}

// Σ a_i·i_i can pass 2⁶³ while every coefficient and coordinate is far
// below it: here (M−2)·(2²⁰−1) ≈ 1.4·2⁶². Both DiskOf and the row must
// still return the residue, not a wrapped product.
func TestGDMLargeSumStaysInRange(t *testing.T) {
	m := 3<<42 + 1
	g := grid.MustNew(1<<20, 2)
	gdm, err := NewGDM(g, m, []int{m - 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	const want = 13194137436164 // (−2·(2²⁰−1) + 1) mod M
	c := grid.Coord{1<<20 - 1, 1}
	if got := gdm.DiskOf(c); got != want {
		t.Errorf("DiskOf(%v) = %d, want %d", c, got, want)
	}
	EachRow(gdm, func(rc grid.Coord, row []int) {
		if rc[0] == c[0] && row[1] != want {
			t.Errorf("row of %v: disk %d, want %d", c, row[1], want)
		}
	})
}

func TestGDMWithUnitCoeffsEqualsDM(t *testing.T) {
	g := grid.MustNew(5, 7)
	dm, _ := NewDM(g, 4)
	gdm, _ := NewGDM(g, 4, []int{1, 1})
	g.Each(func(c grid.Coord) bool {
		if dm.DiskOf(c) != gdm.DiskOf(c) {
			t.Fatalf("bucket %v: DM %d != GDM(1,1) %d", c, dm.DiskOf(c), gdm.DiskOf(c))
		}
		return true
	})
}

func TestGDMCoefficientsCopy(t *testing.T) {
	gdm, _ := NewGDM(grid.MustNew(4, 4), 5, []int{1, 2})
	cs := gdm.Coefficients()
	cs[0] = 99
	if gdm.Coefficients()[0] != 1 {
		t.Fatal("Coefficients exposes internal state")
	}
}

func TestGDMPanicsOnBadCoord(t *testing.T) {
	gdm, _ := NewGDM(grid.MustNew(2, 2), 2, []int{1, 1})
	defer func() {
		if recover() == nil {
			t.Error("DiskOf out-of-range did not panic")
		}
	}()
	gdm.DiskOf(grid.Coord{0, -1})
}

func TestBDMRequiresBinaryGrid(t *testing.T) {
	if _, err := NewBDM(grid.MustNew(2, 4), 2); err == nil {
		t.Error("non-binary grid accepted")
	}
	bdm, err := NewBDM(grid.MustNew(2, 2, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	// <1,1,0> → sum 2 mod 2 = 0
	if d := bdm.DiskOf(grid.Coord{1, 1, 0}); d != 0 {
		t.Errorf("DiskOf(<1,1,0>) = %d, want 0", d)
	}
	if d := bdm.DiskOf(grid.Coord{1, 0, 0}); d != 1 {
		t.Errorf("DiskOf(<1,0,0>) = %d, want 1", d)
	}
}

func TestDMBalanced(t *testing.T) {
	for _, m := range []int{2, 3, 5, 8} {
		g := grid.MustNew(16, 16)
		dm, _ := NewDM(g, m)
		if !IsBalanced(dm) {
			// DM on a 16×16 grid: loads differ by at most one only when
			// dims are multiples of M; verify the histogram sums anyway.
			h := LoadHistogram(dm)
			total := 0
			for _, v := range h {
				total += v
			}
			if total != g.Buckets() {
				t.Fatalf("M=%d: histogram sums to %d, want %d", m, total, g.Buckets())
			}
		}
	}
}
