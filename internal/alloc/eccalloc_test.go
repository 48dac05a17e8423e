package alloc

import (
	"testing"

	"decluster/internal/ecc"
	"decluster/internal/gf2"
	"decluster/internal/grid"
)

func TestNewECCValidation(t *testing.T) {
	cases := []struct {
		name string
		g    *grid.Grid
		m    int
		ok   bool
	}{
		{"pow2 grid, pow2 disks", grid.MustNew(8, 8), 8, true},
		{"non-pow2 axis", grid.MustNew(6, 8), 8, false},
		{"non-pow2 disks folded", grid.MustNew(8, 8), 6, true},
		{"one disk", grid.MustNew(8, 8), 1, false},
		{"single bucket", grid.MustNew(1, 1), 2, false},
		{"3 attrs", grid.MustNew(4, 4, 4), 4, true},
		{"axis of width 1", grid.MustNew(1, 8), 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewECC(tc.g, tc.m)
			if (err == nil) != tc.ok {
				t.Fatalf("NewECC err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	if _, err := NewECC(nil, 4); err == nil {
		t.Error("nil grid accepted")
	}
}

func TestECCRange(t *testing.T) {
	g := grid.MustNew(16, 16)
	e, err := NewECC(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "ECC" || e.Disks() != 8 || e.Grid() != g {
		t.Error("accessors wrong")
	}
	g.Each(func(c grid.Coord) bool {
		d := e.DiskOf(c)
		if d < 0 || d >= 8 {
			t.Fatalf("DiskOf(%v) = %d out of range", c, d)
		}
		return true
	})
}

func TestECCBalanced(t *testing.T) {
	// Full-rank parity check ⇒ equal-size cosets ⇒ perfectly balanced.
	g := grid.MustNew(16, 16)
	e, _ := NewECC(g, 8)
	h := LoadHistogram(e)
	for disk, n := range h {
		if n != g.Buckets()/8 {
			t.Fatalf("disk %d holds %d buckets, want %d", disk, n, g.Buckets()/8)
		}
	}
}

// The coset property: two buckets on the same disk differ in at least
// MinDistance coordinate bits.
func TestECCCosetDistance(t *testing.T) {
	g := grid.MustNew(8, 8)
	e, _ := NewECC(g, 8)
	d := e.Code().MinDistance()
	if d < 3 {
		t.Fatalf("code distance %d, want ≥ 3 (n=6 ≤ 2^3−1)", d)
	}
	var coords []grid.Coord
	g.Each(func(c grid.Coord) bool {
		coords = append(coords, c.Clone())
		return true
	})
	for i := range coords {
		for j := i + 1; j < len(coords); j++ {
			if e.DiskOf(coords[i]) != e.DiskOf(coords[j]) {
				continue
			}
			diff := (e.Word(coords[i]) ^ e.Word(coords[j])).Weight()
			if diff < d {
				t.Fatalf("buckets %v and %v share a disk but differ in %d < %d bits",
					coords[i], coords[j], diff, d)
			}
		}
	}
}

// Grid-adjacent buckets whose coordinate words differ in fewer bits
// than the code's minimum distance are guaranteed separate disks (the
// coset property); e.g. even→odd steps flip a single bit. Carry steps
// like 3→4 flip 3 bits and carry no guarantee.
func TestECCNeighborsSeparated(t *testing.T) {
	g := grid.MustNew(16, 16)
	e, _ := NewECC(g, 8)
	d := e.Code().MinDistance()
	g.Each(func(c grid.Coord) bool {
		for axis := 0; axis < 2; axis++ {
			if c[axis]+1 >= g.Dim(axis) {
				continue
			}
			n := c.Clone()
			n[axis]++
			flipped := (e.Word(c) ^ e.Word(n)).Weight()
			if flipped < d && e.DiskOf(c) == e.DiskOf(n) {
				t.Fatalf("adjacent buckets %v and %v differ in %d < %d bits yet share disk %d",
					c, n, flipped, d, e.DiskOf(c))
			}
		}
		return true
	})
}

func TestECCWithCode(t *testing.T) {
	g := grid.MustNew(8, 8) // 6 coordinate bits
	code, err := ecc.NewShortenedHamming(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewECCWithCode(g, 4, code)
	if err != nil {
		t.Fatal(err)
	}
	if e.Disks() != 4 {
		t.Fatal("wrong disk count")
	}
	// Mismatched length must be rejected.
	short, _ := ecc.NewShortenedHamming(5, 2)
	if _, err := NewECCWithCode(g, 4, short); err == nil {
		t.Error("wrong-length code accepted")
	}
	// Too few syndromes for the disk count must be rejected.
	narrow, _ := ecc.NewShortenedHamming(6, 2)
	if _, err := NewECCWithCode(g, 8, narrow); err == nil {
		t.Error("too-few-syndromes code accepted")
	}
	// More syndromes than disks is allowed (folded by mod M).
	wide, _ := ecc.NewShortenedHamming(6, 3)
	if _, err := NewECCWithCode(g, 4, wide); err != nil {
		t.Errorf("wider code rejected: %v", err)
	}
}

func TestECCPanicsOnBadCoord(t *testing.T) {
	e, _ := NewECC(grid.MustNew(4, 4), 4)
	defer func() {
		if recover() == nil {
			t.Error("DiskOf out-of-range did not panic")
		}
	}()
	e.DiskOf(grid.Coord{0, 9})
}

func TestECCFoldedDiskCountInRange(t *testing.T) {
	// Non-power-of-two M folds syndromes by mod M: disks must stay in
	// range and every disk must be reachable.
	g := grid.MustNew(16, 16)
	e, err := NewECC(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	g.Each(func(c grid.Coord) bool {
		d := e.DiskOf(c)
		if d < 0 || d >= 6 {
			t.Fatalf("DiskOf(%v) = %d out of range", c, d)
		}
		seen[d] = true
		return true
	})
	if len(seen) != 6 {
		t.Fatalf("folded ECC reached %d of 6 disks", len(seen))
	}
}

func TestECCUnequalAxisWidths(t *testing.T) {
	// 4×16: 2 + 4 = 6 bits; interleaved layout must still be valid.
	g := grid.MustNew(4, 16)
	e, err := NewECC(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := LoadHistogram(e)
	for disk, n := range h {
		if n != g.Buckets()/4 {
			t.Fatalf("disk %d holds %d, want %d", disk, n, g.Buckets()/4)
		}
	}
}

// DiskOf must be the definition — the syndrome of the bucket's packed
// word, folded by mod M — on every bucket, for any disk count and for a
// caller-supplied code.
func TestECCDiskOfIsFoldedSyndrome(t *testing.T) {
	check := func(e *ECC) {
		t.Helper()
		g := e.Grid()
		g.Each(func(c grid.Coord) bool {
			if got, want := e.DiskOf(c), e.Code().Syndrome(e.Word(c))%e.Disks(); got != want {
				t.Fatalf("%v, M=%d: DiskOf(%v) = %d, folded syndrome %d", g, e.Disks(), c, got, want)
			}
			return true
		})
	}
	for _, dims := range [][]int{{2, 2}, {8, 8}, {64, 64}, {256, 256}, {64, 16}, {16, 16, 16}, {8, 4, 2}} {
		g := grid.MustNew(dims...)
		for m := 2; m <= 33; m++ {
			e, err := NewECC(g, m)
			if err != nil {
				t.Fatal(err)
			}
			check(e)
		}
	}
	// A code that is not the shortened Hamming default: 8×8 has 6
	// coordinate bits, and three arbitrary parity checks give 8 syndromes
	// for 5 disks.
	code, err := ecc.NewFromParityCheck(gf2.MustMatrix(6, 0b101101, 0b011011, 0b110110))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewECCWithCode(grid.MustNew(8, 8), 5, code)
	if err != nil {
		t.Fatal(err)
	}
	check(e)
}
