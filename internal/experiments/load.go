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

// LoadConfig parameterizes the open-system load sweep — mean response
// versus arrival rate, the headline figure of the multiuser
// declustering studies the paper cites ([21], [22]). It offers 4×4
// queries to disksim.Default1993.
type LoadConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 32).
	GridSide int
	// Disks is M (default 8).
	Disks int
	// Records is the population size (default 30_000).
	Records int
	// Rates are the arrival rates swept, in queries/second (default a
	// geometric sweep into saturation for the 1993 disk model).
	Rates []float64
	// Queries is the number of arrivals simulated per rate
	// (default 400).
	Queries int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.GridSide == 0 {
		c.GridSide = 32
	}
	if c.Disks == 0 {
		c.Disks = 8
	}
	if c.Records == 0 {
		c.Records = 30_000
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{1, 2, 5, 10, 20, 40}
	}
	if c.Queries == 0 {
		c.Queries = 400
	}
	return c
}

// LoadRow is one arrival rate's results per method.
type LoadRow struct {
	Rate float64
	// Mean maps method name to mean response; Util to the busiest
	// disk's utilization.
	Mean map[string]time.Duration
	Util map[string]float64
}

// LoadResult is the regenerated load sweep.
type LoadResult struct {
	Methods []string
	Rows    []LoadRow
}

// Load sweeps the offered arrival rate over grid files built per
// method and reports mean open-system response times. Below
// saturation, methods with tighter per-query disk spread respond
// faster; past it all methods degrade together (total work per disk is
// balanced for all of them).
func Load(cfg LoadConfig, opt Options) (*LoadResult, error) {
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
	limit := opt.limit()
	if limit == 0 || limit > 500 {
		limit = 500
	}
	qs, err := query.Placements(g, []int{4, 4}, limit, opt.seed())
	if err != nil {
		return nil, err
	}

	// Precompute traces per method.
	traces := map[string][]gridfile.Trace{}
	res := &LoadResult{Methods: methodNames(methods)}
	for _, m := range methods {
		f, err := populated(m, 0, records)
		if err != nil {
			return nil, err
		}
		name := lineName(m)
		for _, q := range qs {
			rs, err := f.CellRangeSearch(q)
			if err != nil {
				return nil, err
			}
			traces[name] = append(traces[name], rs.Trace)
		}
	}

	for _, rate := range cfg.Rates {
		row := LoadRow{Rate: rate, Mean: map[string]time.Duration{}, Util: map[string]float64{}}
		for _, name := range res.Methods {
			qr, err := sim.SimulateOpen(traces[name], rate, cfg.Queries, opt.seed())
			if err != nil {
				return nil, err
			}
			row.Mean[name] = qr.MeanResponse
			row.Util[name] = qr.Utilization
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the load sweep.
func (r *LoadResult) Table() *table.Table {
	headers := append([]string{"arrivals/s"}, r.Methods...)
	headers = append(headers, "util (HCAM)")
	t := table.New("E15 — open-system load sweep: mean response by arrival rate", headers...)
	for _, row := range r.Rows {
		cells := make([]interface{}, 0, len(headers))
		cells = append(cells, fmt.Sprintf("%g", row.Rate))
		for _, name := range r.Methods {
			cells = append(cells, row.Mean[name].Round(100*time.Microsecond).String())
		}
		util := row.Util["HCAM"]
		cells = append(cells, fmt.Sprintf("%.0f%%", util*100))
		t.AddRowf(cells...)
	}
	return t
}
