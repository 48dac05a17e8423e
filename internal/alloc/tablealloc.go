package alloc

import (
	"fmt"

	"decluster/internal/grid"
)

// TableAlloc is an explicit allocation: a disk number per bucket,
// indexed by row-major bucket number. It is the output format of the
// strict-optimality search and the input format for allocations loaded
// from external tools.
type TableAlloc struct {
	g     *grid.Grid
	m     int
	name  string
	table []int
}

// NewTable wraps an explicit bucket→disk table. The table must have one
// entry per bucket of g, each in [0, m).
func NewTable(name string, g *grid.Grid, m int, table []int) (*TableAlloc, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	if name == "" {
		name = "Table"
	}
	if len(table) != g.Buckets() {
		return nil, fmt.Errorf("alloc: table has %d entries; grid %v has %d buckets", len(table), g, g.Buckets())
	}
	t := make([]int, len(table))
	for i, d := range table {
		if d < 0 || d >= m {
			return nil, fmt.Errorf("alloc: table entry %d = %d out of [0,%d)", i, d, m)
		}
		t[i] = d
	}
	return &TableAlloc{g: g, m: m, name: name, table: t}, nil
}

// Name implements Method.
func (t *TableAlloc) Name() string { return t.name }

// Grid implements Method.
func (t *TableAlloc) Grid() *grid.Grid { return t.g }

// Disks implements Method.
func (t *TableAlloc) Disks() int { return t.m }

// DiskOf implements Method.
func (t *TableAlloc) DiskOf(c grid.Coord) int {
	return t.table[t.g.Linearize(c)]
}
