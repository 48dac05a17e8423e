package alloc

import (
	"fmt"
	"testing"

	"decluster/internal/grid"
)

// Every row EachRow hands out must equal DiskOf bucket for bucket, for
// every registered method that builds on the grid, for a table
// allocation, and for a method from outside the package, which takes
// the DiskOf fallback.
func TestRowsMatchDiskOf(t *testing.T) {
	grids := [][]int{{1, 7}, {8, 3}, {64, 64}, {100, 37}, {256, 256}, {16, 16, 16}, {3, 5, 7}, {4, 3, 2, 5}}
	for _, dims := range grids {
		g := grid.MustNew(dims...)
		for m := 1; m <= 33; m++ {
			var methods []Method
			for _, name := range Names() {
				if meth, err := Build(name, g, m); err == nil {
					methods = append(methods, meth)
				}
			}
			table := make([]int, g.Buckets())
			for b := range table {
				table[b] = (b*7 + b/3) % m
			}
			ta, err := NewTable("", g, m, table)
			if err != nil {
				t.Fatal(err)
			}
			methods = append(methods, ta, outside{g: g, m: m})
			for _, meth := range methods {
				if err := rowsMatchDiskOf(meth); err != nil {
					t.Fatalf("%s on %v over %d disks: %v", meth.Name(), g, m, err)
				}
			}
		}
	}
}

// outside is a method that is neither a fold nor a deal: the weighted
// coordinate sum Σ (i+1)·c_i mod M.
type outside struct {
	g *grid.Grid
	m int
}

func (o outside) Name() string     { return "outside" }
func (o outside) Grid() *grid.Grid { return o.g }
func (o outside) Disks() int       { return o.m }
func (o outside) DiskOf(c grid.Coord) int {
	s := 0
	for i, v := range c {
		s += (i + 1) * v
	}
	return s % o.m
}

// Disk counts past 2³² take the wide reduction. EachRow must still
// equal DiskOf, and both the rule's own formula: the XOR of the fields,
// FX's plain and ExFX's widened (33 bits here, so the reduction bites),
// or the visit rank.
func TestRowsMatchDiskOfWide(t *testing.T) {
	g := grid.MustNew(8, 5, 6)
	for _, m := range []int{1<<32 + 1, 1<<32 + 3, 3<<40 + 7} {
		fx, err := NewFX(g, m)
		if err != nil {
			t.Fatal(err)
		}
		exfx, err := NewExFX(g, m)
		if err != nil {
			t.Fatal(err)
		}
		hcam, err := NewHCAM(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := hcam.WithDisks(m)
		if err != nil {
			t.Fatal(err)
		}
		if fx.narrow || exfx.narrow || wide.narrow {
			t.Fatalf("%d disks took the 32-bit reduction", m)
		}
		bits := g.BitsPerAxis()
		stag := max(1, exfx.Width()/g.K())
		formula := map[Method]func(c grid.Coord) int{
			fx: func(c grid.Coord) int { return (c[0] ^ c[1] ^ c[2]) % m },
			exfx: func(c grid.Coord) int {
				x := 0
				for i, v := range c {
					x ^= widen(v, bits[i], exfx.Width(), i*stag%exfx.Width())
				}
				return x % m
			},
			wide: func(c grid.Coord) int { return hcam.Rank(c) % m },
		}
		for meth, want := range formula {
			if err := rowsMatchDiskOf(meth); err != nil {
				t.Fatalf("%s over %d disks: %v", meth.Name(), m, err)
			}
			g.Each(func(c grid.Coord) bool {
				if got := meth.DiskOf(c); got != want(c) {
					t.Fatalf("%s over %d disks: DiskOf(%v) = %d, want %d", meth.Name(), m, c, got, want(c))
				}
				return true
			})
		}
	}
}

// DiskOf sits on every record's path; it must not allocate for any
// registered method.
func TestDiskOfZeroAllocs(t *testing.T) {
	built := map[string]bool{}
	for _, g := range []*grid.Grid{grid.MustNew(16, 8), grid.MustNew(2, 2, 2)} {
		c := g.Delinearize(g.Buckets()-3, nil)
		for _, name := range Names() {
			meth, err := Build(name, g, 7)
			if err != nil {
				continue
			}
			built[name] = true
			if n := testing.AllocsPerRun(100, func() { meth.DiskOf(c) }); n != 0 {
				t.Errorf("%s on %v: DiskOf allocates %.1f times per call", name, g, n)
			}
		}
	}
	if len(built) != len(Names()) {
		t.Fatalf("built %d of %d registered methods", len(built), len(Names()))
	}
}

func rowsMatchDiskOf(m Method) error {
	g := m.Grid()
	last := g.K() - 1
	want := make(grid.Coord, g.K())
	rows := 0
	var err error
	EachRow(m, func(c grid.Coord, row []int) {
		if err != nil {
			return
		}
		if first := g.Delinearize(rows*g.Dim(last), nil); !c.Equal(first) || len(row) != g.Dim(last) {
			err = fmt.Errorf("row %d starts at %v with %d entries, want %v with %d", rows, c, len(row), first, g.Dim(last))
			return
		}
		copy(want, c)
		for j, d := range row {
			want[last] = j
			if dd := m.DiskOf(want); d != dd {
				err = fmt.Errorf("bucket %v: row gives disk %d, DiskOf %d", want, d, dd)
				return
			}
		}
		rows++
	})
	if err == nil && rows*g.Dim(last) != g.Buckets() {
		err = fmt.Errorf("%d rows of %d cover %d buckets", rows, g.Dim(last), g.Buckets())
	}
	return err
}

var tableSink []int // keeps the benchmarked call

// BenchmarkAllocTable materializes each paper method's allocation on
// the Figure-5 grid and on a 256×256 one, 16 disks.
func BenchmarkAllocTable(b *testing.B) {
	for _, dims := range [][]int{{64, 64}, {256, 256}} {
		g := grid.MustNew(dims...)
		for _, m := range PaperSet(g, 16) {
			b.Run(fmt.Sprintf("%v/%s", g, m.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tableSink = Table(m)
				}
			})
		}
	}
}
