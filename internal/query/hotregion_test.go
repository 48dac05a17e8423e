package query

import (
	"testing"

	"decluster/internal/grid"
)

func TestHotRegionValidation(t *testing.T) {
	g := grid.MustNew(16, 16)
	hot := g.MustRect(grid.Coord{0, 0}, grid.Coord{3, 3})
	if _, err := HotRegion(g, hot, -0.1, 1, 2, 10, 1); err == nil {
		t.Error("negative heat accepted")
	}
	if _, err := HotRegion(g, hot, 1.1, 1, 2, 10, 1); err == nil {
		t.Error("heat > 1 accepted")
	}
	if _, err := HotRegion(g, hot, 0.5, 0, 2, 10, 1); err == nil {
		t.Error("zero min side accepted")
	}
	if _, err := HotRegion(g, hot, 0.5, 3, 2, 10, 1); err == nil {
		t.Error("inverted side range accepted")
	}
	if _, err := HotRegion(g, hot, 0.5, 1, 2, 0, 1); err == nil {
		t.Error("zero query count accepted")
	}
	bad := grid.Rect{Lo: grid.Coord{0, 0}, Hi: grid.Coord{16, 16}}
	if _, err := HotRegion(g, bad, 0.5, 1, 2, 10, 1); err == nil {
		t.Error("out-of-range hot region accepted")
	}
	inverted := grid.Rect{Lo: grid.Coord{10, 10}, Hi: grid.Coord{3, 3}}
	if w, err := HotRegion(g, inverted, 1, 1, 4, 5, 1); err == nil {
		t.Errorf("inverted hot region accepted: %v", w.Queries)
	}
}

func TestHotRegionConcentrates(t *testing.T) {
	g := grid.MustNew(32, 32)
	hot := g.MustRect(grid.Coord{0, 0}, grid.Coord{7, 7})
	w, err := HotRegion(g, hot, 0.9, 1, 3, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 500 {
		t.Fatalf("got %d queries", len(w.Queries))
	}
	inHot := 0
	for _, q := range w.Queries {
		if !g.Contains(q.Lo) || !g.Contains(q.Hi) {
			t.Fatalf("query %v out of bounds", q)
		}
		if q.Side(0) > 3 || q.Side(1) > 3 {
			t.Fatalf("query %v exceeds max side", q)
		}
		if hot.Contains(q.Lo) && hot.Contains(q.Hi) {
			inHot++
		}
	}
	// With heat 0.9 at least ~80% should land fully inside the region.
	if inHot < 400 {
		t.Fatalf("only %d/500 queries inside the hot region at heat 0.9", inHot)
	}
}

func TestHotRegionColdIsUniform(t *testing.T) {
	g := grid.MustNew(32, 32)
	hot := g.MustRect(grid.Coord{0, 0}, grid.Coord{3, 3})
	w, err := HotRegion(g, hot, 0, 1, 2, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	// heat 0: placements must also land outside the hot region.
	outside := 0
	for _, q := range w.Queries {
		if !hot.Contains(q.Lo) {
			outside++
		}
	}
	if outside < 200 {
		t.Fatalf("only %d/300 queries outside the hot region at heat 0", outside)
	}
}

func TestHotRegionDeterministic(t *testing.T) {
	g := grid.MustNew(16, 16)
	hot := g.MustRect(grid.Coord{0, 0}, grid.Coord{7, 7})
	a, _ := HotRegion(g, hot, 0.5, 1, 4, 50, 9)
	b, _ := HotRegion(g, hot, 0.5, 1, 4, 50, 9)
	for i := range a.Queries {
		if a.Queries[i].String() != b.Queries[i].String() {
			t.Fatal("not deterministic")
		}
	}
}
