package experiments

import (
	"fmt"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/disksim"
	"decluster/internal/grid"
	"decluster/internal/query"
	"decluster/internal/stats"
	"decluster/internal/table"
)

// EndToEndConfig parameterizes the end-to-end timing experiment — the
// realism check layered on top of the paper's abstract metric: the same
// workloads run against populated grid files and a period disk model.
// It times 8×8 queries against files of the grid file's default page
// capacity on disksim.Default1993.
type EndToEndConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 32).
	GridSide int
	// Disks is M (default 8).
	Disks int
	// Records is the population size (default 50_000).
	Records int
}

func (c EndToEndConfig) withDefaults() EndToEndConfig {
	if c.GridSide == 0 {
		c.GridSide = 32
	}
	if c.Disks == 0 {
		c.Disks = 8
	}
	if c.Records == 0 {
		c.Records = 50_000
	}
	return c
}

// EndToEndRow is one method's timing aggregate.
type EndToEndRow struct {
	Method       string
	MeanResponse time.Duration
	MeanSpeedup  float64
	WorstCase    time.Duration
}

// EndToEndResult is the regenerated timing table.
type EndToEndResult struct {
	Workload string
	Records  int
	Rows     []EndToEndRow
}

// EndToEnd loads one grid file per declustering method with the same
// uniform record population, replays the same sampled range-query
// workload against each through the disk simulator, and reports mean
// wall-clock response time and parallel speedup per method. Rankings
// track the abstract bucket metric; absolute times are the disk
// model's.
func EndToEnd(cfg EndToEndConfig, opt Options) (*EndToEndResult, error) {
	cfg = cfg.withDefaults()
	g, err := grid.New(cfg.GridSide, cfg.GridSide)
	if err != nil {
		return nil, err
	}
	methods, err := opt.methods(g, cfg.Disks)
	if err != nil {
		return nil, err
	}
	sim, err := disksim.New(disksim.Default1993())
	if err != nil {
		return nil, err
	}
	records := datagen.Uniform{K: 2, Seed: opt.seed()}.Generate(cfg.Records)
	qs, err := query.Placements(g, []int{8, 8}, opt.limit(), opt.seed())
	if err != nil {
		return nil, err
	}

	res := &EndToEndResult{
		Workload: "8×8 range queries",
		Records:  cfg.Records,
	}
	for _, m := range methods {
		f, err := populated(m, 0, records)
		if err != nil {
			return nil, err
		}
		var worst time.Duration
		times := make([]float64, 0, len(qs))
		speedups := make([]float64, 0, len(qs))
		for _, q := range qs {
			rs, err := f.CellRangeSearch(q)
			if err != nil {
				return nil, err
			}
			rt := sim.ResponseTime(rs.Trace)
			times = append(times, float64(rt))
			speedups = append(speedups, sim.Speedup(rs.Trace))
			if rt > worst {
				worst = rt
			}
		}
		res.Rows = append(res.Rows, EndToEndRow{
			Method:       m.Name(),
			MeanResponse: time.Duration(stats.Mean(times)),
			MeanSpeedup:  stats.Mean(speedups),
			WorstCase:    worst,
		})
	}
	return res, nil
}

// Table renders the timing table.
func (r *EndToEndResult) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E10 — end-to-end timing: %s over %d records", r.Workload, r.Records),
		"method", "mean response", "mean speedup", "worst case")
	for _, row := range r.Rows {
		t.AddRowf(row.Method,
			row.MeanResponse.Round(10*time.Microsecond).String(),
			row.MeanSpeedup,
			row.WorstCase.Round(10*time.Microsecond).String())
	}
	return t
}
