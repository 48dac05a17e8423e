package experiments

import (
	"fmt"

	"decluster/internal/advisor"
	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/grid"
	"decluster/internal/query"
	"decluster/internal/table"
)

// DriftConfig parameterizes the workload-drift experiment — the
// operational consequence of the paper's conclusion: a relation is
// declustered for one query profile, the profile drifts, and the
// experiment quantifies both the penalty of keeping the old method and
// the reorganization bill of switching.
type DriftConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 64).
	GridSide int
	// Disks is M (default 16).
	Disks int
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.GridSide == 0 {
		c.GridSide = 64
	}
	if c.Disks == 0 {
		c.Disks = 16
	}
	return c
}

// DriftResult reports the drift study.
type DriftResult struct {
	// BeforeMethod/AfterMethod are the advisor's elections for the two
	// profiles.
	BeforeMethod, AfterMethod string
	// StaleRT is the drifted workload's mean RT under the stale
	// (before) method; FreshRT under the re-elected one.
	StaleRT, FreshRT float64
	// Penalty is StaleRT / FreshRT — what not reorganizing costs.
	Penalty float64
	// MovedBuckets counts buckets whose disk changes when switching
	// methods; MovedFraction normalizes by the bucket count.
	MovedBuckets  int
	MovedFraction float64
}

// Drift elects a method for the before-profile, drifts the workload,
// and measures (a) the penalty of serving the new profile with the
// stale method and (b) the fraction of buckets a redeclustering to the
// newly elected method would move.
func Drift(cfg DriftConfig, opt Options) (*DriftResult, error) {
	cfg = cfg.withDefaults()
	g, err := grid.New(cfg.GridSide, cfg.GridSide)
	if err != nil {
		return nil, err
	}
	mkMix := func(sides []int) ([]advisor.WorkloadClass, query.Workload, error) {
		qs, err := query.Placements(g, sides, opt.limit(), opt.seed())
		if err != nil {
			return nil, query.Workload{}, err
		}
		w := query.Workload{Name: fmt.Sprintf("%d×%d", sides[0], sides[1]), Queries: qs}
		return []advisor.WorkloadClass{{Workload: w, Weight: 1}}, w, nil
	}
	// The original workload is 1×32 row scans — a modulo-family-friendly
	// profile; it drifts to 4×4 tiles — a curve/code-friendly one.
	beforeMix, _, err := mkMix([]int{1, 32})
	if err != nil {
		return nil, err
	}
	afterMix, afterW, err := mkMix([]int{4, 4})
	if err != nil {
		return nil, err
	}

	beforeRec, err := advisor.Recommend(g, cfg.Disks, beforeMix, nil)
	if err != nil {
		return nil, err
	}
	afterRec, err := advisor.Recommend(g, cfg.Disks, afterMix, nil)
	if err != nil {
		return nil, err
	}

	stale, err := alloc.Build(beforeRec.Best(), g, cfg.Disks)
	if err != nil {
		return nil, err
	}
	fresh, err := alloc.Build(afterRec.Best(), g, cfg.Disks)
	if err != nil {
		return nil, err
	}

	res := &DriftResult{
		BeforeMethod: beforeRec.Best(),
		AfterMethod:  afterRec.Best(),
		StaleRT:      cost.Evaluate(stale, afterW).MeanRT,
		FreshRT:      cost.Evaluate(fresh, afterW).MeanRT,
	}
	if res.FreshRT > 0 {
		res.Penalty = res.StaleRT / res.FreshRT
	}
	oldTable := alloc.Table(stale)
	newTable := alloc.Table(fresh)
	for b := range oldTable {
		if oldTable[b] != newTable[b] {
			res.MovedBuckets++
		}
	}
	res.MovedFraction = float64(res.MovedBuckets) / float64(g.Buckets())
	return res, nil
}

// Table renders the drift study.
func (r *DriftResult) Table() *table.Table {
	t := table.New("E13 — workload drift and redeclustering", "quantity", "value")
	t.AddRowf("method elected for original profile", r.BeforeMethod)
	t.AddRowf("method elected after drift", r.AfterMethod)
	t.AddRowf("drifted workload, stale method (mean RT)", r.StaleRT)
	t.AddRowf("drifted workload, re-elected method (mean RT)", r.FreshRT)
	t.AddRowf("penalty of not reorganizing", fmt.Sprintf("%.2f×", r.Penalty))
	t.AddRowf("buckets moved by redeclustering", r.MovedBuckets)
	t.AddRowf("fraction of buckets moved", fmt.Sprintf("%.0f%%", r.MovedFraction*100))
	return t
}
