package sfc

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"decluster/internal/grid"
)

func TestMortonKnownValues(t *testing.T) {
	// 2-D, 2 bits: (x=1,y=1) → bits x1 y1 x0 y0... dimension 0 higher.
	cases := []struct {
		coords []int
		b      int
		want   int64
	}{
		{[]int{0, 0}, 2, 0},
		{[]int{0, 1}, 1, 1},
		{[]int{1, 0}, 1, 2},
		{[]int{1, 1}, 1, 3},
		{[]int{3, 3}, 2, 15},
		{[]int{2, 1}, 2, 9}, // 10,01 → 1 0 0 1
	}
	for _, tc := range cases {
		got, err := MortonIndex(tc.coords, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("MortonIndex(%v, b=%d) = %d, want %d", tc.coords, tc.b, got, tc.want)
		}
	}
}

func TestMortonRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{2, 3}, {3, 2}, {1, 5}, {4, 2}} {
		points := int64(1) << uint(tc.n*tc.b)
		coords := make([]int, tc.n)
		for idx := int64(0); idx < points; idx++ {
			coords, _ = MortonCoords(idx, tc.n, tc.b, coords)
			back, err := MortonIndex(coords, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if back != idx {
				t.Fatalf("n=%d b=%d: round trip %d → %v → %d", tc.n, tc.b, idx, coords, back)
			}
		}
	}
}

func TestGrayRoundTrip(t *testing.T) {
	coords := make([]int, 2)
	for idx := int64(0); idx < 64; idx++ {
		coords, _ = GrayCoords(idx, 2, 3, coords)
		back, err := GrayIndex(coords, 3)
		if err != nil {
			t.Fatal(err)
		}
		if back != idx {
			t.Fatalf("gray round trip %d → %v → %d", idx, coords, back)
		}
	}
}

// The defining Gray property: consecutive ranks differ in exactly one
// interleaved bit — i.e. one bit of one coordinate.
func TestGrayConsecutiveCellsOneBit(t *testing.T) {
	prev, _ := GrayCoords(0, 2, 3, nil)
	for idx := int64(1); idx < 64; idx++ {
		cur, _ := GrayCoords(idx, 2, 3, nil)
		diff := 0
		for i := range cur {
			diff += bits.OnesCount(uint(cur[i] ^ prev[i]))
		}
		if diff != 1 {
			t.Fatalf("ranks %d→%d: %v → %v differ in %d bits", idx-1, idx, prev, cur, diff)
		}
		prev = cur
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := MortonIndex([]int{4, 0}, 2); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	if _, err := MortonIndex([]int{0, 0}, 0); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := MortonIndex(make([]int, 64), 1); err == nil {
		t.Error("oversized index space accepted")
	}
	if _, err := MortonCoords(-1, 2, 2, nil); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := MortonCoords(16, 2, 2, nil); err == nil {
		t.Error("overflow index accepted")
	}
	if _, err := GrayCoords(16, 2, 2, nil); err == nil {
		t.Error("gray overflow index accepted")
	}
	// A 63-bit index space: its bound 1<<63 does not fit in int64.
	if _, err := MortonCoords(1<<63-1, 7, 9, nil); err != nil {
		t.Errorf("last index of a 63-bit curve rejected: %v", err)
	}
	if _, err := RankTable(grid.MustNew(4, 4), Kind(9)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindString(t *testing.T) {
	if Morton.String() != "morton" || Gray.String() != "gray" || Hilbert.String() != "hilbert" {
		t.Error("kind names wrong")
	}
	if Kind(5).String() != "Kind(5)" {
		t.Error("unknown kind rendering wrong")
	}
}

func TestRankTablePermutation(t *testing.T) {
	dims := [][]int{{8, 8}, {4, 8}, {5, 7}, {4, 4, 4}, {3, 5, 2}}
	checkRankPermutation(t, Morton, dims)
	checkRankPermutation(t, Gray, dims)
}

// checkRankPermutation fails t unless kind's rank table on each grid is
// a permutation of its bucket numbers.
func checkRankPermutation(t *testing.T, kind Kind, dims [][]int) {
	t.Helper()
	for _, d := range dims {
		g := grid.MustNew(d...)
		ranks, err := RankTable(g, kind)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranks) != g.Buckets() {
			t.Fatalf("%v on %v: table size %d, want %d", kind, g, len(ranks), g.Buckets())
		}
		seen := make([]bool, len(ranks))
		for _, r := range ranks {
			if r < 0 || r >= len(ranks) || seen[r] {
				t.Fatalf("%v on %v: ranks not a permutation", kind, g)
			}
			seen[r] = true
		}
	}
}

func TestMortonRankEqualsIndexOnCube(t *testing.T) {
	g := grid.MustNew(8, 8)
	ranks, err := RankTable(g, Morton)
	if err != nil {
		t.Fatal(err)
	}
	g.Each(func(c grid.Coord) bool {
		idx, _ := MortonIndex([]int{c[0], c[1]}, 3)
		if ranks[g.Linearize(c)] != int(idx) {
			t.Fatalf("bucket %v: rank %d != morton %d", c, ranks[g.Linearize(c)], idx)
		}
		return true
	})
}

// Property: Morton and Gray orderings are bijections over random cubes.
func TestQuickRoundTrips(t *testing.T) {
	f := func(a, b uint8) bool {
		coords := []int{int(a % 16), int(b % 16)}
		m, err := MortonIndex(coords, 4)
		if err != nil {
			return false
		}
		mc, err := MortonCoords(m, 2, 4, nil)
		if err != nil || mc[0] != coords[0] || mc[1] != coords[1] {
			return false
		}
		gi, err := GrayIndex(coords, 4)
		if err != nil {
			return false
		}
		gc, err := GrayCoords(gi, 2, 4, nil)
		return err == nil && gc[0] == coords[0] && gc[1] == coords[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// RankTable must equal its definition on every grid: buckets sorted by
// their curve index on the smallest enclosing hypercube, numbered in
// that order. On a grid that fills the hypercube the rank is the index.
func TestRankTableMatchesSortByIndex(t *testing.T) {
	grids := [][]int{
		{1}, {2}, {7}, {64},
		{1, 1}, {8, 8}, {8, 3}, {5, 6}, {100, 37}, {64, 48}, {1, 6}, {3, 4}, {5, 7}, {2, 2}, {256, 256},
		{4, 4, 4}, {3, 5, 7}, {3, 5, 2}, {8, 8, 8}, {16, 1, 9},
		{4, 3, 2, 5}, {2, 2, 2, 2}, {5, 1, 6, 3},
		{3, 3, 3, 3, 3}, {4, 4, 4, 4, 4}, {2, 3, 2, 3, 2},
		{2, 3, 1, 2, 3, 2, 2},
	}
	index := map[Kind]func([]int, int) (int64, error){Morton: MortonIndex, Gray: GrayIndex, Hilbert: HilbertIndex}
	for _, dims := range grids {
		g := grid.MustNew(dims...)
		b := g.CubeBits()
		for _, kind := range []Kind{Morton, Gray, Hilbert} {
			got, err := RankTable(g, kind)
			if err != nil {
				t.Fatal(err)
			}
			want, idx := sortByIndex(t, g, b, index[kind])
			if !slices.Equal(got, want) {
				t.Fatalf("%v on %v: descent ranks differ from the sorted indexes", kind, g)
			}
			if g.Buckets() == 1<<uint(g.K()*b) {
				for bucket, r := range got {
					if int64(r) != idx[bucket] {
						t.Fatalf("%v on %v fills its cube: bucket %d has rank %d, index %d", kind, g, bucket, r, idx[bucket])
					}
				}
			}
		}
	}
}

// sortByIndex is RankTable's definition: every bucket's b-bit curve
// index, sorted, and each bucket's position in that order. It also
// returns the indexes by bucket number.
func sortByIndex(t *testing.T, g *grid.Grid, b int, index func([]int, int) (int64, error)) (ranks []int, idx []int64) {
	t.Helper()
	idx = make([]int64, g.Buckets())
	order := make([]int, g.Buckets())
	g.Each(func(c grid.Coord) bool {
		bucket := g.Linearize(c)
		v, err := index(c, b)
		if err != nil {
			t.Fatal(err)
		}
		idx[bucket], order[bucket] = v, bucket
		return true
	})
	slices.SortFunc(order, func(x, y int) int { return cmp.Compare(idx[x], idx[y]) })
	ranks = make([]int, len(order))
	for r, bucket := range order {
		ranks[bucket] = r
	}
	return ranks, idx
}

func BenchmarkRankTable(b *testing.B) {
	for _, dims := range [][]int{{256, 256}, {64, 64}, {16, 16, 16}} {
		g := grid.MustNew(dims...)
		b.Run(g.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := RankTable(g, Hilbert); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
