package experiments

import (
	"decluster/internal/grid"
	"decluster/internal/query"
)

// SizeConfig parameterizes the query-size sweep (Experiment 1 of the
// paper), on a 64×64 grid over M = 16 disks.
type SizeConfig struct {
	// Areas are the query areas swept (default 1, 2, 4, …, 1024 — the
	// paper varies "area = 1 to area = 1024").
	Areas []int
}

func (c SizeConfig) withDefaults() SizeConfig {
	if len(c.Areas) == 0 {
		for a := 1; a <= 1024; a *= 2 {
			c.Areas = append(c.Areas, a)
		}
	}
	return c
}

// QuerySize reproduces Experiment 1: the effect of query size. For
// each area the most-square shape of that area is placed everywhere on
// the grid (sampled down to the option limit) and each method's mean
// response time and deviation from optimal are reported. The paper
// finds ECC and HCAM best for small queries with DM/CMD trailing, all
// methods converging toward optimal as area grows, and FX taking over
// past a size threshold.
func QuerySize(cfg SizeConfig, opt Options) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := grid.New(64, 64)
	if err != nil {
		return nil, err
	}
	specs, err := query.SizeSpecs(g, cfg.Areas)
	if err != nil {
		return nil, err
	}
	methods, workloads, err := opt.build(g, 16, specs)
	if err != nil {
		return nil, err
	}
	rows, err := evaluateGrid(methods, workloads, opt)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		ID:      "E3",
		Title:   "Experiment 1: effect of query size",
		XLabel:  "query area",
		Methods: methodNames(methods),
		Rows:    rows,
	}, nil
}
