package experiments

import (
	"fmt"

	"decluster/internal/grid"
	"decluster/internal/query"
)

// DBSizeConfig parameterizes the database-size sweep (the "database
// size" axis of the paper's parameter space). Every size runs 8×8
// queries over M = 16 disks.
type DBSizeConfig struct {
	// Sides are the grid side lengths swept (default 16, 32, 64, 128,
	// 256 partitions per attribute — database size grows as side²;
	// powers of two keep ECC applicable at every point).
	Sides []int
}

func (c DBSizeConfig) withDefaults() DBSizeConfig {
	if len(c.Sides) == 0 {
		c.Sides = []int{16, 32, 64, 128, 256}
	}
	return c
}

// DatabaseSize reproduces the database-size axis of the evaluation: a
// fixed query shape is evaluated on grids of growing size (more
// partitions per attribute at constant M). Because the metric is
// normalized per query, database size mainly affects how much of the
// placement space a query's edge effects cover: methods' deviations
// from optimal stay nearly flat, confirming size and attribute count
// matter mostly through the *query*, not the database.
func DatabaseSize(cfg DBSizeConfig, opt Options) (*Experiment, error) {
	cfg = cfg.withDefaults()
	var rows []Row
	var methodsNames []string
	for _, side := range cfg.Sides {
		g, err := grid.New(side, side)
		if err != nil {
			return nil, err
		}
		methods, err := opt.methods(g, 16)
		if err != nil {
			return nil, err
		}
		if methodsNames == nil {
			methodsNames = methodNames(methods)
		} else if len(methodsNames) != len(methods) {
			return nil, fmt.Errorf("experiments: method set changed across database sizes")
		}
		qs, err := query.Placements(g, []int{8, 8}, opt.limit(), opt.seed())
		if err != nil {
			return nil, err
		}
		w := query.Workload{
			Name:    fmt.Sprintf("%d×%d buckets", side, side),
			Queries: qs,
		}
		rs, err := evaluateGrid(methods, []query.Workload{w}, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rs...)
	}
	return &Experiment{
		ID:      "E8",
		Title:   "Effect of database size",
		XLabel:  "grid size",
		Methods: methodsNames,
		Rows:    rows,
	}, nil
}
