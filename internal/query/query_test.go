package query

import (
	"testing"

	"decluster/internal/grid"
)

func TestKindString(t *testing.T) {
	if Range.String() != "range" || PartialMatch.String() != "partial-match" || Point.String() != "point" {
		t.Error("Kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind rendering wrong")
	}
}

func TestClassify(t *testing.T) {
	g := grid.MustNew(8, 8)
	cases := []struct {
		lo, hi grid.Coord
		want   Kind
	}{
		{grid.Coord{3, 4}, grid.Coord{3, 4}, Point},
		{grid.Coord{3, 0}, grid.Coord{3, 7}, PartialMatch},
		{grid.Coord{0, 0}, grid.Coord{7, 7}, PartialMatch}, // all unspecified
		{grid.Coord{1, 2}, grid.Coord{4, 5}, Range},
		{grid.Coord{0, 2}, grid.Coord{7, 2}, PartialMatch},
		{grid.Coord{0, 1}, grid.Coord{7, 6}, Range}, // one axis partial interval
	}
	for _, tc := range cases {
		r := g.MustRect(tc.lo, tc.hi)
		if got := Classify(g, r); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", r, got, tc.want)
		}
	}
}

func TestPlacementsExhaustive(t *testing.T) {
	g := grid.MustNew(6, 6)
	qs, err := Placements(g, []int{2, 3}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := (6 - 2 + 1) * (6 - 3 + 1)
	if len(qs) != want {
		t.Fatalf("got %d placements, want %d", len(qs), want)
	}
	seen := make(map[string]bool)
	for _, q := range qs {
		if q.Side(0) != 2 || q.Side(1) != 3 {
			t.Fatalf("placement %v has wrong shape", q)
		}
		if seen[q.String()] {
			t.Fatalf("duplicate placement %v", q)
		}
		seen[q.String()] = true
	}
}

func TestPlacementsSampled(t *testing.T) {
	g := grid.MustNew(32, 32)
	qs, err := Placements(g, []int{2, 2}, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 50 {
		t.Fatalf("sample size %d, want 50", len(qs))
	}
	seen := make(map[string]bool)
	for _, q := range qs {
		if q.Side(0) != 2 || q.Side(1) != 2 {
			t.Fatalf("sampled placement %v has wrong shape", q)
		}
		if q.Lo[0] < 0 || q.Hi[0] >= 32 || q.Lo[1] < 0 || q.Hi[1] >= 32 {
			t.Fatalf("sampled placement %v out of bounds", q)
		}
		if seen[q.String()] {
			t.Fatalf("duplicate sampled placement %v", q)
		}
		seen[q.String()] = true
	}
	// Determinism: same seed, same sample.
	qs2, _ := Placements(g, []int{2, 2}, 50, 7)
	for i := range qs {
		if qs[i].String() != qs2[i].String() {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestPlacementsInvalidShape(t *testing.T) {
	g := grid.MustNew(4, 4)
	if _, err := Placements(g, []int{5, 1}, 0, 1); err == nil {
		t.Error("oversized shape accepted")
	}
	if _, err := Placements(g, []int{1}, 0, 1); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestShapesOfArea(t *testing.T) {
	g := grid.MustNew(8, 8)
	shapes, err := ShapesOfArea(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	// 12 = 2×6 = 3×4 = 4×3 = 6×2 (1×12 and 12×1 do not fit an 8-wide axis)
	want := map[string]bool{"[2 6]": true, "[3 4]": true, "[4 3]": true, "[6 2]": true}
	if len(shapes) != len(want) {
		t.Fatalf("got %d shapes %v, want %d", len(shapes), shapes, len(want))
	}
	for _, s := range shapes {
		key := "[" + itoa(s[0]) + " " + itoa(s[1]) + "]"
		if !want[key] {
			t.Errorf("unexpected shape %v", s)
		}
		if s[0]*s[1] != 12 {
			t.Errorf("shape %v has wrong area", s)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestShapesOfAreaNoFit(t *testing.T) {
	g := grid.MustNew(4, 4)
	if _, err := ShapesOfArea(g, 17); err == nil { // prime > 4: no fit
		t.Error("unfittable area accepted")
	}
	if _, err := ShapesOfArea(g, 0); err == nil {
		t.Error("zero area accepted")
	}
}

func TestShapesOfArea3D(t *testing.T) {
	g := grid.MustNew(4, 4, 4)
	shapes, err := ShapesOfArea(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shapes {
		if s[0]*s[1]*s[2] != 8 {
			t.Errorf("shape %v has wrong volume", s)
		}
	}
	// 8 = product of three sides each in 1..4: (1,2,4),(2,2,2),(1,4,2)… —
	// just check (2,2,2) is present.
	found := false
	for _, s := range shapes {
		if s[0] == 2 && s[1] == 2 && s[2] == 2 {
			found = true
		}
	}
	if !found {
		t.Error("cube shape 2×2×2 missing")
	}
}

func TestSquarishSides(t *testing.T) {
	g := grid.MustNew(64, 64)
	cases := []struct {
		area int
		want []int
	}{
		{1, []int{1, 1}},
		{4, []int{2, 2}},
		{12, []int{3, 4}}, // ratio 4/3 beats 6/2
		{64, []int{8, 8}},
		{1024, []int{32, 32}},
	}
	for _, tc := range cases {
		got, err := SquarishSides(g, tc.area)
		if err != nil {
			t.Fatalf("area %d: %v", tc.area, err)
		}
		if got[0]*got[1] != tc.area {
			t.Fatalf("area %d: shape %v has wrong area", tc.area, got)
		}
		r1 := elongation(got)
		r2 := elongation(tc.want)
		if r1 > r2 {
			t.Errorf("area %d: shape %v less square than %v", tc.area, got, tc.want)
		}
	}
}

func TestSquarishSidesPrime(t *testing.T) {
	g := grid.MustNew(64, 64)
	got, err := SquarishSides(g, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Primes only factor as 1×p.
	if !(got[0] == 1 && got[1] == 13 || got[0] == 13 && got[1] == 1) {
		t.Fatalf("prime area shape = %v", got)
	}
}

func TestSizeSweep(t *testing.T) {
	g := grid.MustNew(16, 16)
	ws, err := SizeSweep(g, []int{1, 4, 16, 64}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("got %d workloads, want 4", len(ws))
	}
	for i, area := range []int{1, 4, 16, 64} {
		for _, q := range ws[i].Queries {
			if q.Volume() != area {
				t.Fatalf("workload %s: query %v volume %d", ws[i].Name, q, q.Volume())
			}
		}
		if len(ws[i].Queries) == 0 {
			t.Fatalf("workload %s empty", ws[i].Name)
		}
	}
}

func TestSizeSweepSkipsUnfittable(t *testing.T) {
	g := grid.MustNew(4, 4)
	ws, err := SizeSweep(g, []int{4, 17}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 {
		t.Fatalf("got %d workloads, want 1 (17 unfittable)", len(ws))
	}
	if _, err := SizeSweep(g, []int{17, 19}, 0, 1); err == nil {
		t.Error("all-unfittable sweep accepted")
	}
}

func TestShapeSweepOrderedSquareToLine(t *testing.T) {
	g := grid.MustNew(64, 64)
	ws, err := ShapeSweep(g, 64, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) < 3 {
		t.Fatalf("only %d shapes for area 64", len(ws))
	}
	if ws[0].Name != "8×8" {
		t.Errorf("first shape %s, want 8×8", ws[0].Name)
	}
	last := ws[len(ws)-1].Name
	if last != "1×64" && last != "64×1" {
		t.Errorf("last shape %s, want a line", last)
	}
	for _, w := range ws {
		for _, q := range w.Queries {
			if q.Volume() != 64 {
				t.Fatalf("workload %s: wrong area %d", w.Name, q.Volume())
			}
		}
	}
}

func TestShapeSweepRequires2D(t *testing.T) {
	if _, err := ShapeSweep(grid.MustNew(4, 4, 4), 8, 0, 1); err == nil {
		t.Error("3-D grid accepted")
	}
}

func TestPartialMatchWorkload(t *testing.T) {
	g := grid.MustNew(4, 6, 8)
	w, err := PartialMatchWorkload(g, []bool{false, true, false}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 4*8 {
		t.Fatalf("got %d PM queries, want 32", len(w.Queries))
	}
	for _, q := range w.Queries {
		if Classify(g, q) != PartialMatch {
			t.Fatalf("query %v not classified partial-match", q)
		}
		if q.Side(1) != 6 {
			t.Fatalf("unspecified axis not full: %v", q)
		}
		if q.Side(0) != 1 || q.Side(2) != 1 {
			t.Fatalf("specified axes not single: %v", q)
		}
	}
	if w.Name != "PM[s*s]" {
		t.Errorf("name = %q", w.Name)
	}
}

func TestPartialMatchWorkloadArity(t *testing.T) {
	if _, err := PartialMatchWorkload(grid.MustNew(4, 4), []bool{true}, 0, 1); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestPointWorkload(t *testing.T) {
	g := grid.MustNew(3, 3)
	w, err := PointWorkload(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 9 {
		t.Fatalf("got %d point queries, want 9", len(w.Queries))
	}
	for _, q := range w.Queries {
		if Classify(g, q) != Point {
			t.Fatalf("query %v not a point", q)
		}
	}
	if w.Name != "point" {
		t.Errorf("name = %q", w.Name)
	}
}

func TestRandomRangeEffectiveBandName(t *testing.T) {
	// Unclamped band: name is the requested band.
	g := grid.MustNew(64, 64)
	w, err := RandomRange(g, 16, 48, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "random[16..48]" {
		t.Errorf("Name = %q, want random[16..48]", w.Name)
	}

	// Band wider than the grid: the name must report what is actually
	// generated, not the lie random[16..48] over an 8×8 grid.
	g = grid.MustNew(8, 8)
	w, err = RandomRange(g, 2, 48, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "random[2..8]" {
		t.Errorf("Name = %q, want random[2..8]", w.Name)
	}
	for _, q := range w.Queries {
		for i := range q.Lo {
			if s := q.Side(i); s < 2 || s > 8 {
				t.Fatalf("query %v side %d outside effective band [2,8]", q, s)
			}
		}
	}

	// Mixed dims clamp per axis; the name spans the realizable range.
	g = grid.MustNew(4, 32)
	w, err = RandomRange(g, 8, 16, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "random[4..16]" {
		t.Errorf("Name = %q, want random[4..16]", w.Name)
	}

	// A band entirely above the grid is a different workload, not a
	// clamped one: reject it.
	g = grid.MustNew(8, 8)
	if _, err := RandomRange(g, 16, 48, 50, 1); err == nil {
		t.Error("band entirely above the grid was accepted")
	}
}

// The sampler sorts placement indexes instead of sorting rectangles:
// the output must still be strictly ascending by low corner, and must
// be the very rectangles the insertion-sorting sampler produced (the
// literals below were recorded from it, at the commit before the
// change).
func TestSampledPlacementsAscendingAndPinned(t *testing.T) {
	type corners [2][]int
	for _, tc := range []struct {
		dims, sides []int
		limit       int
		seed        int64
		first, last [5]corners
	}{
		{
			dims: []int{64, 64}, sides: []int{4, 4}, limit: 2000, seed: 7,
			first: [5]corners{
				{{0, 0}, {3, 3}}, {{0, 2}, {3, 5}}, {{0, 3}, {3, 6}}, {{0, 4}, {3, 7}}, {{0, 5}, {3, 8}},
			},
			last: [5]corners{
				{{60, 53}, {63, 56}}, {{60, 54}, {63, 57}}, {{60, 55}, {63, 58}}, {{60, 57}, {63, 60}}, {{60, 60}, {63, 63}},
			},
		},
		{
			dims: []int{16, 16, 16}, sides: []int{2, 3, 4}, limit: 500, seed: 42,
			first: [5]corners{
				{{0, 0, 11}, {1, 2, 14}}, {{0, 1, 2}, {1, 3, 5}}, {{0, 1, 3}, {1, 3, 6}}, {{0, 2, 0}, {1, 4, 3}}, {{0, 2, 12}, {1, 4, 15}},
			},
			last: [5]corners{
				{{14, 12, 7}, {15, 14, 10}}, {{14, 12, 8}, {15, 14, 11}}, {{14, 13, 0}, {15, 15, 3}}, {{14, 13, 4}, {15, 15, 7}}, {{14, 13, 5}, {15, 15, 8}},
			},
		},
		{
			dims: []int{8, 8, 8, 8}, sides: []int{2, 2, 2, 2}, limit: 300, seed: 3,
			first: [5]corners{
				{{0, 0, 1, 5}, {1, 1, 2, 6}}, {{0, 0, 2, 0}, {1, 1, 3, 1}}, {{0, 0, 2, 1}, {1, 1, 3, 2}}, {{0, 0, 3, 0}, {1, 1, 4, 1}}, {{0, 0, 4, 4}, {1, 1, 5, 5}},
			},
			last: [5]corners{
				{{6, 6, 1, 5}, {7, 7, 2, 6}}, {{6, 6, 3, 3}, {7, 7, 4, 4}}, {{6, 6, 5, 3}, {7, 7, 6, 4}}, {{6, 6, 6, 2}, {7, 7, 7, 3}}, {{6, 6, 6, 5}, {7, 7, 7, 6}},
			},
		},
	} {
		g := grid.MustNew(tc.dims...)
		qs, err := Placements(g, tc.sides, tc.limit, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) != tc.limit {
			t.Fatalf("%v: %d placements, want %d", g, len(qs), tc.limit)
		}
		for i := 1; i < len(qs); i++ {
			ascending := false
			for a := range qs[i].Lo {
				if qs[i].Lo[a] != qs[i-1].Lo[a] {
					ascending = qs[i].Lo[a] > qs[i-1].Lo[a]
					break
				}
			}
			if !ascending {
				t.Fatalf("%v: placement %d %v does not follow %v", g, i, qs[i], qs[i-1])
			}
		}
		for i := 0; i < 5; i++ {
			for _, pin := range []struct {
				got  grid.Rect
				want corners
			}{{qs[i], tc.first[i]}, {qs[len(qs)-5+i], tc.last[i]}} {
				if !pin.got.Lo.Equal(pin.want[0]) || !pin.got.Hi.Equal(pin.want[1]) {
					t.Fatalf("%v seed %d: got %v, pinned %v", g, tc.seed, pin.got, pin.want)
				}
			}
		}
		// Corners share one slab; growing one must not reach the next.
		_ = append(qs[0].Lo, -1)
		_ = append(qs[0].Hi, -1)
		if !qs[0].Hi.Equal(tc.first[0][1]) || !qs[1].Lo.Equal(tc.first[1][0]) {
			t.Fatalf("%v: appending to a corner overwrote its neighbour", g)
		}
	}
}
