package experiments

import (
	"time"

	"decluster/internal/datagen"
	"decluster/internal/disksim"
	"decluster/internal/grid"
	"decluster/internal/query"
	"decluster/internal/stats"
	"decluster/internal/table"
)

// SkewConfig parameterizes the data-skew experiment — an extension past
// the paper's uniform-data assumption: the same query workload over
// populations of different shapes, exposing how record placement skews
// interact with bucket declustering. It times 4×4 queries on
// disksim.Default1993.
type SkewConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 32).
	GridSide int
	// Disks is M (default 8).
	Disks int
	// Records is the population size (default 30_000).
	Records int
}

func (c SkewConfig) withDefaults() SkewConfig {
	if c.GridSide == 0 {
		c.GridSide = 32
	}
	if c.Disks == 0 {
		c.Disks = 8
	}
	if c.Records == 0 {
		c.Records = 30_000
	}
	return c
}

// SkewRow is one (population, method) cell of the skew table.
type SkewRow struct {
	Population string
	// MeanMillis maps method name to mean simulated response time.
	MeanMillis map[string]float64
}

// SkewResult is the regenerated data-skew table.
type SkewResult struct {
	Methods []string
	Rows    []SkewRow
}

// populations lists the distributions compared.
func (c SkewConfig) populations(seed int64) []datagen.Generator {
	return []datagen.Generator{
		datagen.Uniform{K: 2, Seed: seed},
		datagen.Zipf{K: 2, Seed: seed, S: 1.5, Buckets: c.GridSide},
		datagen.Clustered{K: 2, Seed: seed, Clusters: 5, Sigma: 0.08},
		datagen.Correlated{K: 2, Seed: seed, Noise: 0.08},
	}
}

// Skew loads one grid file per (population, method) pair and times the
// same sampled range-query workload through the disk simulator. Under
// skew the paper's bucket-count metric and wall-clock diverge: hot
// buckets hold more pages, so a method whose collisions fall on hot
// regions (e.g. DM's diagonals under correlated data) pays more than
// its bucket counts suggest.
func Skew(cfg SkewConfig, opt Options) (*SkewResult, error) {
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
	limit := opt.limit()
	if limit == 0 || limit > 200 {
		limit = 200 // per-query simulation is the bottleneck
	}
	qs, err := query.Placements(g, []int{4, 4}, limit, opt.seed())
	if err != nil {
		return nil, err
	}

	res := &SkewResult{Methods: methodNames(methods)}
	for _, gen := range cfg.populations(opt.seed()) {
		records := gen.Generate(cfg.Records)
		row := SkewRow{Population: gen.Name(), MeanMillis: map[string]float64{}}
		for _, m := range methods {
			f, err := populated(m, 0, records)
			if err != nil {
				return nil, err
			}
			times := make([]float64, 0, len(qs))
			for _, q := range qs {
				rs, err := f.CellRangeSearch(q)
				if err != nil {
					return nil, err
				}
				times = append(times, float64(sim.ResponseTime(rs.Trace))/float64(time.Millisecond))
			}
			row.MeanMillis[lineName(m)] = stats.Mean(times)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the skew table (mean response in milliseconds).
func (r *SkewResult) Table() *table.Table {
	headers := append([]string{"population"}, r.Methods...)
	t := table.New("E12 — data skew: mean response (ms) by population", headers...)
	for _, row := range r.Rows {
		cells := make([]interface{}, 0, len(headers))
		cells = append(cells, row.Population)
		for _, name := range r.Methods {
			cells = append(cells, row.MeanMillis[name])
		}
		t.AddRowf(cells...)
	}
	return t
}
