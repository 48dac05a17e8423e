package experiments

import (
	"fmt"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/disksim"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/query"
	"decluster/internal/table"
)

// BatchConfig parameterizes the multi-user batch experiment — the
// extension toward the multiuser analyses the paper cites
// (Ghandeharizadeh & DeWitt): many queries queued at once per disk,
// measuring makespan rather than single-query latency. Its disks are
// disksim.Default1993.
type BatchConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 32).
	GridSide int
	// Disks is M (default 8).
	Disks int
	// Records is the population size (default 30_000).
	Records int
	// BatchSizes are the numbers of concurrent queries per batch
	// (default 1, 2, 4, 8, 16, 32).
	BatchSizes []int
	// QuerySides is the query shape batched (default 4×4).
	QuerySides []int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.GridSide == 0 {
		c.GridSide = 32
	}
	if c.Disks == 0 {
		c.Disks = 8
	}
	if c.Records == 0 {
		c.Records = 30_000
	}
	if len(c.BatchSizes) == 0 {
		c.BatchSizes = []int{1, 2, 4, 8, 16, 32}
	}
	if len(c.QuerySides) == 0 {
		c.QuerySides = []int{4, 4}
	}
	return c
}

// BatchRow is one batch size's makespan per method.
type BatchRow struct {
	BatchSize int
	// Makespan maps method name to the batch completion time.
	Makespan map[string]time.Duration
}

// BatchResult is the regenerated throughput table.
type BatchResult struct {
	Methods []string
	Rows    []BatchRow
}

// Batch loads one grid file per method and serves batches of
// concurrent range queries back to back on every disk, reporting the
// makespan by batch size. Declustering quality shows as sub-linear
// makespan growth: the better the spread, the closer a batch of q
// queries comes to q/M of the serial work per disk.
func Batch(cfg BatchConfig, opt Options) (*BatchResult, error) {
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

	maxBatch := 0
	for _, b := range cfg.BatchSizes {
		if b < 1 {
			return nil, fmt.Errorf("experiments: batch size %d must be ≥ 1", b)
		}
		if b > maxBatch {
			maxBatch = b
		}
	}
	qs, err := query.Placements(g, cfg.QuerySides, maxBatch, opt.seed())
	if err != nil {
		return nil, err
	}
	if len(qs) < maxBatch {
		return nil, fmt.Errorf("experiments: grid %v yields only %d placements; largest batch is %d", g, len(qs), maxBatch)
	}

	res := &BatchResult{Methods: methodNames(methods)}
	traces := make(map[string][]gridfile.Trace)
	for _, m := range methods {
		f, err := populated(m, 0, records)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			rs, err := f.CellRangeSearch(q)
			if err != nil {
				return nil, err
			}
			traces[lineName(m)] = append(traces[lineName(m)], rs.Trace)
		}
	}
	for _, b := range cfg.BatchSizes {
		row := BatchRow{BatchSize: b, Makespan: map[string]time.Duration{}}
		for _, name := range res.Methods {
			row.Makespan[name] = sim.BatchResponseTime(traces[name][:b])
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the batch throughput table.
func (r *BatchResult) Table() *table.Table {
	headers := append([]string{"batch size"}, r.Methods...)
	t := table.New("E11 — multi-user batches: makespan by batch size", headers...)
	for _, row := range r.Rows {
		cells := make([]interface{}, 0, len(headers))
		cells = append(cells, row.BatchSize)
		for _, name := range r.Methods {
			cells = append(cells, row.Makespan[name].Round(100*time.Microsecond).String())
		}
		t.AddRowf(cells...)
	}
	return t
}
