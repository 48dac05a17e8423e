package experiments

import (
	"decluster/internal/grid"
	"decluster/internal/query"
)

// ShapeConfig parameterizes the query-shape sweep (Experiment 2 of the
// paper), on a 64×64 grid over M = 16 disks.
type ShapeConfig struct {
	// Area is the fixed query area whose shapes are swept (default 64,
	// which spans aspect ratios 1:1 through 1:M and beyond on the
	// default grid — the paper varies "from a square to a line by
	// varying the aspect ratio from 1:1 to 1:M").
	Area int
}

func (c ShapeConfig) withDefaults() ShapeConfig {
	if c.Area == 0 {
		c.Area = 64
	}
	return c
}

// QueryShape reproduces Experiment 2: the effect of query shape. All
// integer-sided shapes of the fixed area are swept from square to line;
// each method's sensitivity to aspect ratio is reported. The paper
// finds performance "quite sensitive to query shape": DM-family
// methods are exactly optimal on 1×j line queries yet weak on squares,
// while the space-filling and code-based methods prefer compact shapes.
func QueryShape(cfg ShapeConfig, opt Options) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := grid.New(64, 64)
	if err != nil {
		return nil, err
	}
	specs, err := query.ShapeSpecs(g, cfg.Area)
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
		ID:      "E4",
		Title:   "Experiment 2: effect of query shape",
		XLabel:  "shape (rows×cols)",
		Methods: methodNames(methods),
		Rows:    rows,
	}, nil
}
