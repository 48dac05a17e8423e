package experiments

import (
	"decluster/internal/grid"
	"decluster/internal/query"
)

// PMConfig parameterizes the partial-match experiment (the query class
// §3.1 of the paper analyses theoretically). It has no settings: the
// experiment runs pmAttrs attributes of 16 partitions each over M = 8
// disks.
type PMConfig struct{}

// pmAttrs is k, the partial-match grid's attribute count.
const pmAttrs = 3

// PartialMatch evaluates the methods over every partial-match pattern
// (each attribute either pinned to a single partition or fully
// unspecified), grouped by the number of unspecified attributes. It
// makes the paper's §3.1 theory observable: DM/CMD answer every
// one-unspecified pattern at the optimum, and deviations concentrate in
// the mixed patterns.
func PartialMatch(_ PMConfig, opt Options) (*Experiment, error) {
	g, err := grid.Uniform(pmAttrs, 16)
	if err != nil {
		return nil, err
	}
	var specs []query.Spec
	// All 2^k−2 proper patterns (at least one specified, one not), in
	// increasing number of unspecified attributes.
	for unspecCount := 1; unspecCount < pmAttrs; unspecCount++ {
		for mask := 1; mask < 1<<uint(pmAttrs); mask++ {
			pattern := make([]bool, pmAttrs)
			n := 0
			for i := 0; i < pmAttrs; i++ {
				if mask>>uint(i)&1 == 1 {
					pattern[i] = true
					n++
				}
			}
			if n != unspecCount {
				continue
			}
			spec, err := query.PartialMatchSpec(g, pattern)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	methods, workloads, err := opt.build(g, 8, specs)
	if err != nil {
		return nil, err
	}
	rows, err := evaluateGrid(methods, workloads, opt)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		ID:      "E9",
		Title:   "Partial match queries by unspecified pattern",
		XLabel:  "pattern (s=specified, *=unspecified)",
		Methods: methodNames(methods),
		Rows:    rows,
	}, nil
}
