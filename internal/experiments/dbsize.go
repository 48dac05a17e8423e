package experiments

import (
	"fmt"

	"decluster/internal/alloc"
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
	sets := make([][]alloc.Method, len(cfg.Sides))
	workloads := make([]query.Workload, len(cfg.Sides))
	var steps []func() error
	for i, side := range cfg.Sides {
		g, err := grid.New(side, side)
		if err != nil {
			return nil, err
		}
		spec := query.Spec{Name: fmt.Sprintf("%d×%d buckets", side, side), Sides: []int{8, 8}}
		steps = append(steps,
			func() (err error) {
				sets[i], err = opt.methods(g, 16)
				return err
			},
			func() (err error) {
				workloads[i], err = spec.Build(g, opt.limit(), opt.seed())
				return err
			})
	}
	if err := opt.setUp(steps...); err != nil {
		return nil, err
	}
	// Every size's cells go through the pool in one call: one row per
	// size, its methods in column order.
	var names []string
	var methods []alloc.Method
	var cells []evalCell
	for i, set := range sets {
		if names == nil {
			names = methodNames(set)
		} else if len(names) != len(set) {
			return nil, fmt.Errorf("experiments: method set changed across database sizes")
		}
		for _, m := range set {
			cells = append(cells, evalCell{method: len(methods), workload: i})
			methods = append(methods, m)
		}
	}
	res, err := opt.evaluateCells(methods, workloads, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(workloads))
	n := len(names)
	for i, w := range workloads {
		rows[i] = Row{Label: w.Name, Results: res[i*n : (i+1)*n : (i+1)*n]}
	}
	return &Experiment{
		ID:      "E8",
		Title:   "Effect of database size",
		XLabel:  "grid size",
		Methods: names,
		Rows:    rows,
	}, nil
}
