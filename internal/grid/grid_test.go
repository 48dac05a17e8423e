package grid

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		ok   bool
	}{
		{"empty", nil, false},
		{"zero dim", []int{4, 0}, false},
		{"negative dim", []int{-1}, false},
		{"single", []int{7}, true},
		{"square", []int{8, 8}, true},
		{"ragged", []int{2, 5, 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(tc.dims...)
			if tc.ok && err != nil {
				t.Fatalf("New(%v) error: %v", tc.dims, err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("New(%v) succeeded; want error", tc.dims)
				}
				return
			}
			want := 1
			for _, d := range tc.dims {
				want *= d
			}
			if g.Buckets() != want {
				t.Errorf("Buckets() = %d, want %d", g.Buckets(), want)
			}
			if g.K() != len(tc.dims) {
				t.Errorf("K() = %d, want %d", g.K(), len(tc.dims))
			}
		})
	}
}

func TestNewOverflow(t *testing.T) {
	if _, err := New(1<<31, 1<<31, 4); err == nil {
		t.Fatal("New with overflowing bucket count succeeded; want error")
	}
}

func TestUniform(t *testing.T) {
	g, err := Uniform(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.K() != 3 || g.Buckets() != 64 {
		t.Fatalf("Uniform(3,4) = %v with %d buckets", g, g.Buckets())
	}
	if _, err := Uniform(0, 4); err == nil {
		t.Fatal("Uniform(0,4) succeeded; want error")
	}
}

func TestLinearizeRoundTrip(t *testing.T) {
	g := MustNew(3, 4, 5)
	seen := make(map[int]bool)
	g.Each(func(c Coord) bool {
		n := g.Linearize(c)
		if n < 0 || n >= g.Buckets() {
			t.Fatalf("Linearize(%v) = %d out of range", c, n)
		}
		if seen[n] {
			t.Fatalf("Linearize(%v) = %d already produced", c, n)
		}
		seen[n] = true
		back := g.Delinearize(n, nil)
		if !back.Equal(c) {
			t.Fatalf("Delinearize(%d) = %v, want %v", n, back, c)
		}
		return true
	})
	if len(seen) != g.Buckets() {
		t.Fatalf("Each visited %d buckets, want %d", len(seen), g.Buckets())
	}
}

func TestLinearizeRowMajor(t *testing.T) {
	g := MustNew(2, 3)
	want := []Coord{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for n, c := range want {
		if got := g.Linearize(c); got != n {
			t.Errorf("Linearize(%v) = %d, want %d", c, got, n)
		}
	}
}

func TestLinearizePanics(t *testing.T) {
	g := MustNew(2, 2)
	for _, c := range []Coord{{0}, {0, 2}, {-1, 0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Linearize(%v) did not panic", c)
				}
			}()
			g.Linearize(c)
		}()
	}
}

func TestDelinearizePanics(t *testing.T) {
	g := MustNew(2, 2)
	for _, n := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Delinearize(%d) did not panic", n)
				}
			}()
			g.Delinearize(n, nil)
		}()
	}
}

func TestContains(t *testing.T) {
	g := MustNew(3, 3)
	cases := []struct {
		c    Coord
		want bool
	}{
		{Coord{0, 0}, true},
		{Coord{2, 2}, true},
		{Coord{3, 0}, false},
		{Coord{0, -1}, false},
		{Coord{1}, false},
		{Coord{1, 1, 1}, false},
	}
	for _, tc := range cases {
		if got := g.Contains(tc.c); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestCoordCloneIndependence(t *testing.T) {
	c := Coord{1, 2, 3}
	d := c.Clone()
	d[0] = 9
	if c[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
	if !c.Equal(Coord{1, 2, 3}) {
		t.Fatal("original mutated")
	}
}

func TestCoordString(t *testing.T) {
	if s := (Coord{1, 2, 3}).String(); s != "<1,2,3>" {
		t.Errorf("String() = %q", s)
	}
	if s := (Coord{7}).String(); s != "<7>" {
		t.Errorf("String() = %q", s)
	}
}

func TestGridString(t *testing.T) {
	if s := MustNew(8, 16).String(); s != "8×16" {
		t.Errorf("String() = %q", s)
	}
}

func TestRectValidation(t *testing.T) {
	g := MustNew(4, 4)
	if _, err := g.NewRect(Coord{0, 0}, Coord{3, 3}); err != nil {
		t.Errorf("full rect rejected: %v", err)
	}
	bad := []struct {
		lo, hi Coord
	}{
		{Coord{0}, Coord{1, 1}},
		{Coord{0, 0}, Coord{4, 0}},
		{Coord{-1, 0}, Coord{1, 1}},
		{Coord{2, 2}, Coord{1, 3}},
	}
	for _, tc := range bad {
		if _, err := g.NewRect(tc.lo, tc.hi); err == nil {
			t.Errorf("NewRect(%v, %v) succeeded; want error", tc.lo, tc.hi)
		}
	}
}

func TestRectGeometry(t *testing.T) {
	g := MustNew(8, 8)
	r := g.MustRect(Coord{1, 2}, Coord{3, 5})
	if r.Volume() != 12 {
		t.Errorf("Volume = %d, want 12", r.Volume())
	}
	if r.Side(0) != 3 || r.Side(1) != 4 {
		t.Errorf("Sides = %v, want [3 4]", r.Sides())
	}
	if !r.Contains(Coord{2, 3}) || r.Contains(Coord{0, 3}) || r.Contains(Coord{2, 6}) {
		t.Error("Contains wrong")
	}
	if r.Contains(Coord{2}) {
		t.Error("Contains accepted wrong dimensionality")
	}
	if s := r.String(); s != "<1,2>..<3,5>" {
		t.Errorf("String = %q", s)
	}
}

func TestEachRectCoversExactly(t *testing.T) {
	g := MustNew(5, 6)
	r := g.MustRect(Coord{1, 2}, Coord{3, 4})
	visited := make(map[int]bool)
	EachRect(r, func(c Coord) bool {
		if !r.Contains(c) {
			t.Fatalf("visited %v outside rect %v", c, r)
		}
		visited[g.Linearize(c)] = true
		return true
	})
	if len(visited) != r.Volume() {
		t.Fatalf("visited %d buckets, want %d", len(visited), r.Volume())
	}
}

func TestEachRectEarlyStop(t *testing.T) {
	g := MustNew(4, 4)
	r := g.FullRect()
	n := 0
	EachRect(r, func(c Coord) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestEachEarlyStop(t *testing.T) {
	g := MustNew(4, 4)
	n := 0
	g.Each(func(c Coord) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
}

func TestPlacements(t *testing.T) {
	g := MustNew(4, 5)
	count := 0
	n, err := g.Placements([]int{2, 3}, func(r Rect) bool {
		if r.Side(0) != 2 || r.Side(1) != 3 {
			t.Fatalf("placement %v has wrong sides", r)
		}
		for i := 0; i < 2; i++ {
			if r.Lo[i] < 0 || r.Hi[i] >= g.Dim(i) {
				t.Fatalf("placement %v out of bounds", r)
			}
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := (4 - 2 + 1) * (5 - 3 + 1)
	if n != want || count != want {
		t.Fatalf("Placements visited %d/%d, want %d", count, n, want)
	}
	pc, err := g.PlacementCount([]int{2, 3})
	if err != nil || pc != want {
		t.Fatalf("PlacementCount = %d, %v; want %d", pc, err, want)
	}
}

func TestPlacementsDistinct(t *testing.T) {
	g := MustNew(3, 3)
	seen := make(map[string]bool)
	_, err := g.Placements([]int{2, 2}, func(r Rect) bool {
		key := r.String()
		if seen[key] {
			t.Fatalf("placement %v repeated", r)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("saw %d placements, want 4", len(seen))
	}
}

func TestPlacementsErrors(t *testing.T) {
	g := MustNew(4, 4)
	if _, err := g.Placements([]int{5, 1}, func(Rect) bool { return true }); err == nil {
		t.Error("oversized side accepted")
	}
	if _, err := g.Placements([]int{0, 1}, func(Rect) bool { return true }); err == nil {
		t.Error("zero side accepted")
	}
	if _, err := g.Placements([]int{2}, func(Rect) bool { return true }); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := g.PlacementCount([]int{9, 1}); err == nil {
		t.Error("PlacementCount oversized side accepted")
	}
	if _, err := g.PlacementCount([]int{1}); err == nil {
		t.Error("PlacementCount wrong arity accepted")
	}
}

func TestPlacementsEarlyStop(t *testing.T) {
	g := MustNew(8, 8)
	n, err := g.Placements([]int{1, 1}, func(r Rect) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop visited %d placements, want 1", n)
	}
}

func TestFullRect(t *testing.T) {
	g := MustNew(3, 7)
	r := g.FullRect()
	if r.Volume() != g.Buckets() {
		t.Fatalf("FullRect volume %d != buckets %d", r.Volume(), g.Buckets())
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	if !MustNew(4, 8, 16).IsPowerOfTwo() {
		t.Error("4×8×16 not recognized as power of two")
	}
	if MustNew(4, 6).IsPowerOfTwo() {
		t.Error("4×6 wrongly recognized as power of two")
	}
	if !MustNew(1, 2).IsPowerOfTwo() {
		t.Error("1×2 not recognized as power of two (1 = 2^0)")
	}
}

func TestBitsPerAxis(t *testing.T) {
	g := MustNew(1, 2, 3, 4, 5, 8, 9)
	want := []int{1, 1, 2, 2, 3, 3, 4}
	got := g.BitsPerAxis()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("BitsPerAxis[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestDimsIsCopy(t *testing.T) {
	g := MustNew(2, 3)
	d := g.Dims()
	d[0] = 99
	if g.Dim(0) != 2 {
		t.Fatal("Dims() exposes internal state")
	}
}

// Property: linearize∘delinearize is the identity on bucket numbers.
func TestQuickLinearizeInverse(t *testing.T) {
	g := MustNew(7, 5, 3)
	f := func(n uint) bool {
		idx := int(n % uint(g.Buckets()))
		return g.Linearize(g.Delinearize(idx, nil)) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every rectangle's volume equals the number of coordinates
// EachRect visits.
func TestQuickRectVolume(t *testing.T) {
	g := MustNew(6, 6)
	f := func(a, b, c, d uint) bool {
		lo0, hi0 := int(a%6), int(b%6)
		lo1, hi1 := int(c%6), int(d%6)
		if lo0 > hi0 {
			lo0, hi0 = hi0, lo0
		}
		if lo1 > hi1 {
			lo1, hi1 = hi1, lo1
		}
		r := g.MustRect(Coord{lo0, lo1}, Coord{hi0, hi1})
		n := 0
		EachRect(r, func(Coord) bool { n++; return true })
		return n == r.Volume()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeSaturates(t *testing.T) {
	// Three axes of 2^21 partitions each: the true volume is 2^63,
	// one past math.MaxInt — the pre-guard code wrapped to a negative
	// count, corrupting MeanOpt and any table sized from it.
	side := 1 << 21
	r := Rect{Lo: Coord{0, 0, 0}, Hi: Coord{side - 1, side - 1, side - 1}}
	if got := r.Volume(); got != math.MaxInt {
		t.Errorf("Volume = %d, want saturation at math.MaxInt", got)
	}
	// Far past the limit as well.
	huge := math.MaxInt - 1
	r = Rect{Lo: Coord{0, 0}, Hi: Coord{huge, huge}}
	if got := r.Volume(); got != math.MaxInt {
		t.Errorf("Volume = %d, want saturation at math.MaxInt", got)
	}
	// Unsaturated volumes are exact, including unit axes.
	r = Rect{Lo: Coord{0, 3, 5}, Hi: Coord{0, 3, 9}}
	if got := r.Volume(); got != 5 {
		t.Errorf("Volume = %d, want 5", got)
	}
}

// appendRectOracle is AppendRect as every caller used to hand-roll it:
// walk the rectangle's coordinates and linearize each.
func appendRectOracle(g *Grid, dst []int, r Rect) []int {
	EachRect(r, func(c Coord) bool {
		dst = append(dst, g.Linearize(c))
		return true
	})
	return dst
}

func TestAppendRectMatchesEachRect(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {5, 7}, {4, 4, 4}, {3, 4, 2, 3}} {
		g := MustNew(dims...)
		rects := 0
		// Every rectangle of the grid: every low corner, every high
		// corner at or past it.
		g.Each(func(lo Coord) bool {
			lo = lo.Clone()
			EachRect(Rect{Lo: lo, Hi: g.FullRect().Hi}, func(hi Coord) bool {
				r := Rect{Lo: lo, Hi: hi}
				got, want := g.AppendRect(nil, r), appendRectOracle(g, nil, r)
				if !slices.Equal(got, want) {
					t.Fatalf("grid %v rect %v: AppendRect = %v, want %v", g, r, got, want)
				}
				if len(got) != r.Volume() {
					t.Fatalf("grid %v rect %v: %d buckets, volume %d", g, r, len(got), r.Volume())
				}
				rects++
				return true
			})
			return true
		})
		if rects == 0 {
			t.Fatalf("grid %v: no rectangle visited", g)
		}
	}

	// Nine axes: the walk's offsets no longer fit the stack scratch.
	g := MustNew(2, 3, 2, 2, 3, 2, 2, 2, 3)
	for _, r := range []Rect{
		g.FullRect(),
		g.MustRect(Coord{1, 2, 1, 1, 2, 1, 1, 1, 2}, Coord{1, 2, 1, 1, 2, 1, 1, 1, 2}),
		g.MustRect(Coord{0, 1, 0, 1, 0, 1, 0, 1, 0}, Coord{1, 2, 1, 1, 2, 1, 0, 1, 1}),
		g.MustRect(Coord{1, 0, 0, 0, 1, 0, 1, 0, 1}, Coord{1, 2, 0, 1, 1, 1, 1, 0, 2}),
	} {
		if got, want := g.AppendRect(nil, r), appendRectOracle(g, nil, r); !slices.Equal(got, want) {
			t.Errorf("9-axis rect %v: AppendRect differs from EachRect+Linearize (%d vs %d buckets)", r, len(got), len(want))
		}
	}

	// It appends: what dst already held stays in front.
	g = MustNew(5, 7)
	r := g.MustRect(Coord{1, 2}, Coord{3, 4})
	got := g.AppendRect([]int{-7, -8}, r)
	if want := appendRectOracle(g, []int{-7, -8}, r); !slices.Equal(got, want) {
		t.Errorf("AppendRect onto a non-empty dst = %v, want %v", got, want)
	}
}

// TestAppendRectZeroAllocs gates the routing hot path's enumeration:
// into a dst with room, grids of up to eight attributes allocate nothing.
func TestAppendRectZeroAllocs(t *testing.T) {
	for _, dims := range [][]int{{64, 64}, {4, 4, 4}, {2, 2, 2, 2, 2, 2, 2, 2}} {
		g := MustNew(dims...)
		r := g.FullRect()
		dst := make([]int, 0, g.Buckets())
		if avg := testing.AllocsPerRun(100, func() {
			dst = g.AppendRect(dst[:0], r)
		}); avg > 0 {
			t.Errorf("grid %v: AppendRect allocates %.1f allocs/op into a pre-sized dst, want 0", g, avg)
		}
	}
}

func TestCheckRect(t *testing.T) {
	g := MustNew(5, 7)
	for _, tc := range []struct {
		name   string
		lo, hi Coord
		want   []string // substrings of the error; nil = valid
	}{
		{"valid 1×1", Coord{4, 6}, Coord{4, 6}, nil},
		{"valid full", Coord{0, 0}, Coord{4, 6}, nil},
		{"short Lo", Coord{1}, Coord{2, 3}, []string{"1..2 axes", "2-attribute"}},
		{"long Hi", Coord{1, 1}, Coord{2, 3, 4}, []string{"2..3 axes"}},
		{"no corners", nil, nil, []string{"0..0 axes"}},
		{"negative", Coord{0, -1}, Coord{2, 3}, []string{"outside grid", "axis 1"}},
		{"past the edge", Coord{0, 0}, Coord{5, 3}, []string{"outside grid", "axis 0"}},
		{"inverted", Coord{1, 5}, Coord{2, 4}, []string{"inverted", "axis 1", "Lo 5 > Hi 4"}},
		{"inverted and outside", Coord{6, 0}, Coord{2, 9}, []string{"inverted", "axis 0"}},
	} {
		err := g.CheckRect(Rect{Lo: tc.lo, Hi: tc.hi})
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: CheckRect = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: rect %v..%v accepted", tc.name, tc.lo, tc.hi)
			continue
		}
		for _, sub := range tc.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q lacks %q", tc.name, err, sub)
			}
		}
		// NewRect is the same rule under the package's own prefix.
		if _, nerr := g.NewRect(tc.lo, tc.hi); nerr == nil || nerr.Error() != "grid: "+err.Error() {
			t.Errorf("%s: NewRect error %v, want %q prefixed", tc.name, nerr, err)
		}
	}
}

func TestCubeBits(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		want int
	}{
		{[]int{1}, 1}, {[]int{2, 2}, 1}, {[]int{8, 3}, 3}, {[]int{5, 7}, 3}, {[]int{4, 9, 2}, 4},
	} {
		if got := MustNew(tc.dims...).CubeBits(); got != tc.want {
			t.Errorf("CubeBits(%v) = %d, want %d", tc.dims, got, tc.want)
		}
	}
}

// TestEachBucketMatchesAppendRect pins the callback walk to the slice
// walk: same buckets, same order, stops at the first false and says so,
// and allocates nothing.
func TestEachBucketMatchesAppendRect(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {5, 7}, {4, 4, 4}, {2, 3, 2, 2, 3, 2, 2, 2, 3}} {
		g := MustNew(dims...)
		g.Placements(g.FullRect().Hi, func(r Rect) bool { // sides d_i−1: 2^k placements
			var got []int
			if !g.EachBucket(r, func(b int) bool { got = append(got, b); return true }) {
				t.Fatalf("grid %v rect %v: full walk reported an early stop", g, r)
			}
			want := g.AppendRect(nil, r)
			if !slices.Equal(got, want) {
				t.Fatalf("grid %v rect %v: EachBucket = %v, AppendRect = %v", g, r, got, want)
			}
			stopAt, seen := want[len(want)/2], 0
			if g.EachBucket(r, func(b int) bool { seen++; return b != stopAt }) || seen != len(want)/2+1 {
				t.Fatalf("grid %v rect %v: stop at bucket %d visited %d, want %d and false", g, r, stopAt, seen, len(want)/2+1)
			}
			return true
		})
	}
	g := MustNew(64, 64)
	r, sum := g.FullRect(), 0
	if avg := testing.AllocsPerRun(100, func() {
		g.EachBucket(r, func(b int) bool { sum += b; return true })
	}); avg > 0 {
		t.Errorf("EachBucket allocates %.1f allocs/op, want 0", avg)
	}
}
