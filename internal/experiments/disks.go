package experiments

import (
	"fmt"

	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/grid"
	"decluster/internal/query"
)

// DisksConfig parameterizes the disk-count sweeps (Figure 5(a)/(b) of
// the paper). Each query class is a band of sizes and shapes: every
// query draws its side on each axis uniformly from the band, modelling
// the paper's "small queries" and "large queries" populations.
type DisksConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 64).
	GridSide int
	// Disks are the disk counts swept (default 2..32 — the paper's
	// figure discusses crossovers at 14 and 25 disks, so the sweep must
	// cover past 25).
	Disks []int
}

func (c DisksConfig) withDefaults() DisksConfig {
	if c.GridSide == 0 {
		c.GridSide = 64
	}
	if len(c.Disks) == 0 {
		for m := 2; m <= 32; m += 2 {
			c.Disks = append(c.Disks, m)
		}
	}
	return c
}

// disksSweep runs one query band across the disk counts. Unlike the
// other experiments the x axis is M, so each row has its own method
// set; the FX/ExFX pair collapses onto one "FX" line per the paper's
// selection rule, and methods inapplicable at some M leave a gap
// (zero-query result) to keep columns aligned. All (M, method) cells
// fan across the sweep engine's worker pool.
func disksSweep(id, title string, band [2]int, cfg DisksConfig, opt Options) (*Experiment, error) {
	g, err := grid.New(cfg.GridSide, cfg.GridSide)
	if err != nil {
		return nil, err
	}
	var warnings []string
	n := opt.limit()
	if n == 0 {
		// The band is open-ended, so "every placement" is undefined —
		// sampling is forced. Before PR 5 this silently replaced an
		// explicit -exhaustive with sampled data; now the run says so.
		n = 2000
		warnings = append(warnings,
			fmt.Sprintf("exhaustive mode is undefined for the open-ended query band [%d..%d]; sampled %d placements instead", band[0], band[1], n))
	}
	w, err := query.RandomRange(g, band[0], band[1], n, opt.seed())
	if err != nil {
		return nil, err
	}

	// Column set: union of line names across all M; and one evaluation
	// cell per applicable (M, method) pair.
	perRow, err := opt.methodSets(g, cfg.Disks)
	if err != nil {
		return nil, err
	}
	var colSet []string
	seen := map[string]bool{}
	var methods []alloc.Method
	var cells []evalCell
	cellIdx := make([][]int, len(cfg.Disks))
	for row := range cfg.Disks {
		for _, mm := range perRow[row] {
			if name := lineName(mm); !seen[name] {
				seen[name] = true
				colSet = append(colSet, name)
			}
			cellIdx[row] = append(cellIdx[row], len(cells))
			cells = append(cells, evalCell{method: len(methods), w: w})
			methods = append(methods, mm)
		}
	}
	evaluated, err := opt.evaluateCells(methods, cells)
	if err != nil {
		return nil, err
	}

	rows := make([]Row, 0, len(cfg.Disks))
	for row, m := range cfg.Disks {
		byName := map[string]cost.Result{}
		for i, mm := range perRow[row] {
			byName[lineName(mm)] = evaluated[cellIdx[row][i]]
		}
		results := make([]cost.Result, len(colSet))
		for i, name := range colSet {
			if r, ok := byName[name]; ok {
				results[i] = r
			} else {
				results[i] = cost.Result{Method: name, Workload: w.Name} // gap
			}
		}
		rows = append(rows, Row{Label: fmt.Sprintf("M=%d", m), Results: results})
	}
	return &Experiment{
		ID:       id,
		Title:    title,
		XLabel:   "disks",
		Methods:  colSet,
		Rows:     rows,
		Warnings: warnings,
	}, nil
}

// DisksSmall reproduces Figure 5(a): mean response time versus the
// number of disks for small queries. The paper finds HCAM uniformly
// best here (bested only in small regions by FX or ECC) and DM/CMD
// uniformly worst. Small queries have sides in [1, 4].
func DisksSmall(cfg DisksConfig, opt Options) (*Experiment, error) {
	cfg = cfg.withDefaults()
	return disksSweep("E6", "Figure 5(a): disks sweep, small queries", [2]int{1, 4}, cfg, opt)
}

// DisksLarge reproduces Figure 5(b): mean response time versus the
// number of disks for large queries. The paper finds the picture
// inverted from 5(a): DM/CMD and FX outperform HCAM, with ECC
// overtaking HCAM and then DM/CMD as disks grow. Large queries have
// sides in [16, 48].
func DisksLarge(cfg DisksConfig, opt Options) (*Experiment, error) {
	cfg = cfg.withDefaults()
	return disksSweep("E7", "Figure 5(b): disks sweep, large queries", [2]int{16, 48}, cfg, opt)
}
