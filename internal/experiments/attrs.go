package experiments

import (
	"decluster/internal/grid"
	"decluster/internal/query"
)

// AttrsConfig parameterizes the attribute-count experiment (Experiment
// 3 of the paper). It runs k = 3 attributes ("for this experiment we
// considered 3 attributes") of 16 partitions each — a 16³ grid of 4096
// buckets, matching the 64×64 bucket count of Experiments 1 and 2 —
// over M = 16 disks.
type AttrsConfig struct {
	// Volumes are the query volumes swept (default 1, 2, 4, …, 512).
	Volumes []int
}

func (c AttrsConfig) withDefaults() AttrsConfig {
	if len(c.Volumes) == 0 {
		for v := 1; v <= 512; v *= 2 {
			c.Volumes = append(c.Volumes, v)
		}
	}
	return c
}

// Attributes reproduces Experiment 3: the effect of increasing the
// number of attributes. Queries of growing volume are evaluated on a
// k-attribute grid; the paper's intuition — "as the number of
// dimensions is increased, the fraction of a query on which a
// declustering method is sub-optimal becomes almost negligibly small"
// — shows as deviation ratios shrinking toward 1 faster than in the
// 2-attribute sweeps.
func Attributes(cfg AttrsConfig, opt Options) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := grid.Uniform(3, 16)
	if err != nil {
		return nil, err
	}
	specs, err := query.SizeSpecs(g, cfg.Volumes)
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
		ID:      "E5",
		Title:   "Experiment 3: effect of the number of attributes",
		XLabel:  "query volume",
		Methods: methodNames(methods),
		Rows:    rows,
	}, nil
}
