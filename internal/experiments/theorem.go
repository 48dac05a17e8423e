package experiments

import (
	"fmt"

	"decluster/internal/grid"
	"decluster/internal/optimality"
	"decluster/internal/table"
)

// TheoremConfig parameterizes the strict-optimality existence sweep
// (§3.2 of the paper: no declustering method is strictly optimal for
// range queries when M > 5).
type TheoremConfig struct {
	// MaxDisks bounds the sweep (default 8).
	MaxDisks int
}

// theoremBudget bounds the search tree per configuration, in nodes;
// every default configuration completes far below it.
const theoremBudget = 50_000_000

func (c TheoremConfig) withDefaults() TheoremConfig {
	if c.MaxDisks == 0 {
		c.MaxDisks = 8
	}
	return c
}

// TheoremRow is one line of the existence table.
type TheoremRow struct {
	Disks   int
	Grid    string
	Outcome optimality.Outcome
	Nodes   int64
}

// TheoremResult is the regenerated existence table.
type TheoremResult struct {
	Rows []TheoremRow
}

// Theorem verifies the paper's theoretical contribution constructively:
// for each M up to MaxDisks it runs the complete backtracking search on
// the M×M witness grid (side max(M,3) to leave room in both axes) and
// records whether a strictly optimal allocation exists. The expected
// outcomes — found for M ∈ {1,2,3,5}, impossible for M = 4 and for
// every M ≥ 6 — include the paper's theorem as the M > 5 band.
func Theorem(cfg TheoremConfig) (*TheoremResult, error) {
	cfg = cfg.withDefaults()
	res := &TheoremResult{}
	for m := 1; m <= cfg.MaxDisks; m++ {
		side := m
		if side < 3 {
			side = 3
		}
		g, err := grid.New(side, side)
		if err != nil {
			return nil, err
		}
		sr := optimality.SearchStrictlyOptimal(g, m, theoremBudget)
		if sr.Outcome == optimality.Undecided {
			return nil, fmt.Errorf("experiments: theorem search undecided at M=%d within budget %d", m, theoremBudget)
		}
		res.Rows = append(res.Rows, TheoremRow{
			Disks:   m,
			Grid:    g.String(),
			Outcome: sr.Outcome,
			Nodes:   sr.Nodes,
		})
	}
	return res, nil
}

// Table renders the existence table.
func (r *TheoremResult) Table() *table.Table {
	t := table.New("E2 — strict optimality for range queries: existence by M",
		"M", "witness grid", "strictly optimal allocation", "search nodes")
	for _, row := range r.Rows {
		exists := "exists"
		if row.Outcome == optimality.Impossible {
			exists = "none (proved by exhaustion)"
		}
		t.AddRowf(row.Disks, row.Grid, exists, fmt.Sprintf("%d", row.Nodes))
	}
	return t
}

// HoldsPaperTheorem reports whether the rows confirm the paper's claim:
// every M > 5 in the sweep is Impossible.
func (r *TheoremResult) HoldsPaperTheorem() bool {
	saw := false
	for _, row := range r.Rows {
		if row.Disks > 5 {
			saw = true
			if row.Outcome != optimality.Impossible {
				return false
			}
		}
	}
	return saw
}

// Table1Report regenerates the paper's Table 1 (partial-match
// optimality conditions) on the given configuration and renders it.
func Table1Report(dims []int, disks int) (*table.Table, error) {
	g, err := grid.New(dims...)
	if err != nil {
		return nil, err
	}
	reports := optimality.Table1(g, disks)
	t := table.New(fmt.Sprintf("E1 — Table 1: PM optimality conditions on %v, M=%d", g, disks),
		"method", "condition", "status")
	for _, r := range reports {
		status := "n/a (preconditions not met)"
		if r.Applies {
			if r.Holds {
				status = "holds"
			} else {
				status = "VIOLATED: " + r.Violation.String()
			}
		}
		t.AddRow(r.Method, r.Condition, status)
	}
	return t, nil
}
