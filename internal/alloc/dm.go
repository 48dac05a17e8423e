package alloc

import (
	"fmt"

	"decluster/internal/grid"
)

// GDM is the generalized disk modulo method (Du 1986): bucket
// <i_1,…,i_k> goes to disk (a_1·i_1+…+a_k·i_k) mod M for fixed
// coefficients a_i. Choosing a_i coprime to M and to each other spreads
// diagonal query patterns that plain DM stacks onto few disks.
type GDM struct {
	fold   // axis i: value v → a_i·v mod M, built by repeated addition
	name   string
	coeffs []int
}

// NewGDM constructs a generalized disk modulo allocation with the given
// per-attribute coefficients (one per grid dimension, reduced mod m).
func NewGDM(g *grid.Grid, m int, coeffs []int) (*GDM, error) {
	return newGDM("GDM", g, m, coeffs)
}

func newGDM(name string, g *grid.Grid, m int, coeffs []int) (*GDM, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	if len(coeffs) != g.K() {
		return nil, fmt.Errorf("alloc: %d coefficients for %d-dimensional grid", len(coeffs), g.K())
	}
	cs := make([]int, len(coeffs))
	for i, a := range coeffs {
		cs[i] = ((a % m) + m) % m
	}
	f := newFold(g, m, false, func(i, v int, t []int) int {
		if v == 0 {
			return 0
		}
		return addMod(t[v-1], cs[i], m)
	})
	return &GDM{fold: f, name: name, coeffs: cs}, nil
}

// NewDM constructs the disk modulo method of Du & Sobolewski (TODS
// 1982), equal to the coordinate modulo declustering (CMD) of Li,
// Srivastava & Rotem (VLDB 1992): GDM with every a_i = 1, so bucket
// <i_1,…,i_k> goes to disk (i_1+…+i_k) mod M.
//
// DM is strictly optimal for all partial match queries with exactly one
// unspecified attribute, and for all partial match queries with at
// least one unspecified attribute whose domain satisfies d_i mod M = 0.
func NewDM(g *grid.Grid, m int) (*GDM, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	return newGDM("DM", g, m, unitCoeffs(g.K()))
}

// NewBDM constructs the binary disk modulo method (Du 1986): disk
// modulo restricted to binary Cartesian product files, where every
// attribute has exactly two partitions. It returns an error if any
// grid dimension is not 2.
func NewBDM(g *grid.Grid, m int) (*GDM, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	for i := 0; i < g.K(); i++ {
		if g.Dim(i) != 2 {
			return nil, fmt.Errorf("alloc: BDM requires binary attributes; axis %d has %d partitions", i, g.Dim(i))
		}
	}
	return newGDM("BDM", g, m, unitCoeffs(g.K()))
}

func unitCoeffs(k int) []int {
	coeffs := make([]int, k)
	for i := range coeffs {
		coeffs[i] = 1
	}
	return coeffs
}

// Name implements Method.
func (d *GDM) Name() string { return d.name }

// Coefficients returns a copy of the reduced coefficient vector.
func (d *GDM) Coefficients() []int {
	out := make([]int, len(d.coeffs))
	copy(out, d.coeffs)
	return out
}
