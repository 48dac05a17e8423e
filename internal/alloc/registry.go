package alloc

import (
	"fmt"
	"sort"
	"strings"

	"decluster/internal/grid"
)

// NewFXAuto applies the paper's selection rule for the XOR family: use
// FX when the number of partitions on every attribute is greater than
// the number of disks, and ExFX otherwise ("we consider FX when the
// number of partitions are greater than the number of disks and ExFX
// otherwise").
func NewFXAuto(g *grid.Grid, m int) (Method, error) {
	if err := checkArgs(g, m); err != nil {
		return nil, err
	}
	for i := 0; i < g.K(); i++ {
		if g.Dim(i) <= m {
			return NewExFX(g, m)
		}
	}
	return NewFX(g, m)
}

// Builder constructs a method over a grid and disk count.
type Builder func(g *grid.Grid, m int) (Method, error)

// builders is the registry of named constructors. GDM defaults to
// coefficients 1, 2, …, k (coprime-ish spread over attributes); Random
// defaults to seed 1 for reproducibility.
var builders = map[string]Builder{
	"DM":   func(g *grid.Grid, m int) (Method, error) { return NewDM(g, m) },
	"CMD":  func(g *grid.Grid, m int) (Method, error) { return NewDM(g, m) },
	"GDM":  func(g *grid.Grid, m int) (Method, error) { return NewGDM(g, m, defaultGDMCoeffs(g.K())) },
	"BDM":  func(g *grid.Grid, m int) (Method, error) { return NewBDM(g, m) },
	"FX":   func(g *grid.Grid, m int) (Method, error) { return NewFX(g, m) },
	"EXFX": func(g *grid.Grid, m int) (Method, error) { return NewExFX(g, m) },
	"FX*":  NewFXAuto,
	"ECC":  func(g *grid.Grid, m int) (Method, error) { return NewECC(g, m) },
	"HCAM": func(g *grid.Grid, m int) (Method, error) { return NewHCAM(g, m) },
	"ZCAM": func(g *grid.Grid, m int) (Method, error) { return NewZCAM(g, m) },
	"GCAM": func(g *grid.Grid, m int) (Method, error) { return NewGCAM(g, m) },
	"RANDOM": func(g *grid.Grid, m int) (Method, error) {
		return NewRandom(g, m, 1)
	},
}

func defaultGDMCoeffs(k int) []int {
	coeffs := make([]int, k)
	for i := range coeffs {
		coeffs[i] = i + 1
	}
	return coeffs
}

// Build constructs a method by name (case-insensitive). Recognized
// names: DM, CMD, GDM, BDM, FX, ExFX, FX* (the paper's FX/ExFX
// selection rule), ECC, HCAM, ZCAM, GCAM, Random.
func Build(name string, g *grid.Grid, m int) (Method, error) {
	b, ok := builders[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("alloc: unknown method %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return b(g, m)
}

// Names lists the registered method names in sorted order.
func Names() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PaperSet constructs the four methods the paper's experiments compare
// — DM/CMD, FX (with the ExFX fallback rule), ECC and HCAM — over the
// given grid and disk count. Methods whose structural preconditions the
// grid/disk combination violates (e.g. ECC on non-power-of-two disks)
// are skipped; the returned slice preserves the paper's ordering.
func PaperSet(g *grid.Grid, m int) []Method {
	return PaperSets(g, []int{m})[0]
}

// PaperSets is PaperSet for each of several disk counts over one grid,
// as a disk sweep needs. The Hilbert ranks depend on the grid only, so
// they are computed once and every HCAM of the call shares them.
func PaperSets(g *grid.Grid, disks []int) [][]Method {
	var hcam *RankDeal // first HCAM built; the rest share its ranks
	out := make([][]Method, len(disks))
	for i, m := range disks {
		if dm, err := NewDM(g, m); err == nil {
			out[i] = append(out[i], dm)
		}
		if fx, err := NewFXAuto(g, m); err == nil {
			out[i] = append(out[i], fx)
		}
		if e, err := NewECC(g, m); err == nil {
			out[i] = append(out[i], e)
		}
		var h *RankDeal
		var err error
		if hcam == nil {
			h, err = NewHCAM(g, m)
			hcam = h
		} else {
			h, err = hcam.WithDisks(m)
		}
		if err == nil {
			out[i] = append(out[i], h)
		}
	}
	return out
}
