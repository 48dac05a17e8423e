package alloc

import (
	"fmt"
	"testing"

	"decluster/internal/grid"
)

// Every row EachRow hands out must equal DiskOf bucket for bucket, for
// every registered method that builds on the grid and for a table
// allocation, which takes the DiskOf fallback.
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
			methods = append(methods, ta)
			for _, meth := range methods {
				if err := rowsMatchDiskOf(meth); err != nil {
					t.Fatalf("%s on %v over %d disks: %v", meth.Name(), g, m, err)
				}
			}
		}
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
