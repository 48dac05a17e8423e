package main

import (
	"bytes"
	"fmt"
	"testing"

	"decluster/internal/experiments"
)

// TestPaperTablesGolden pins the exact bytes declustersim prints for the
// paper's tables at seed 1 and the default sample limit: every sweep
// under each of the four metrics, the sweeps with a random column again
// with -random, and the one-table experiments once. Any change to an
// allocator, a query generator, a kernel or the sweep engine that moves
// a single digit of the paper's evaluation fails here.
func TestPaperTablesGolden(t *testing.T) {
	sweeps := []string{"size", "shape", "attrs", "disks-small", "disks-large", "dbsize", "pm"}
	withRandom := []string{"size", "disks-small", "disks-large", "dbsize"}
	single := []string{"table1", "theorem", "skew", "drift", "replication"}
	metrics := []experiments.Metric{experiments.MeanRT, experiments.Ratio, experiments.FracOptimal, experiments.WorstRT}

	var buf bytes.Buffer
	render := func(name string, metric experiments.Metric, random bool) {
		t.Helper()
		fmt.Fprintf(&buf, "== %s metric=%d random=%t ==\n", name, metric, random)
		set := settings{metric: metric, opt: experiments.Options{Seed: 1, IncludeRandom: random}}
		if err := run(&buf, name, set); err != nil {
			t.Fatalf("%s (metric %v, random %t): %v", name, metric, random, err)
		}
	}
	for _, name := range single {
		render(name, experiments.MeanRT, false)
	}
	for _, name := range sweeps {
		for _, m := range metrics {
			render(name, m, false)
		}
	}
	for _, name := range withRandom {
		for _, m := range metrics {
			render(name, m, true)
		}
	}
	checkGolden(t, "paper_tables.golden", buf.String())
}
