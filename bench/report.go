package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// report is the all-workload file: what `-out` writes and `compare`
// reads. Every timing metric carries the per-window (or per-set-up)
// samples it was estimated from, so two reports can be compared against
// their own spread.
type report struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Rounds  int     `json:"rounds"`
	// Ladder holds the per-layer metrics of the workload-independent
	// ladder, measured once; a workload's PerLayer holds the rest.
	Ladder    map[string]metricValue     `json:"ladder"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]reportMetric `json:"end_to_end"`
	PerLayer  map[string]metricValue  `json:"per_layer"`
	Windows   []window                `json:"windows"`
}

type reportMetric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// reportRounds is how many interleaved rounds the all-workload report
// cuts each workload's measuring time into.
const reportRounds = 4

// reportAll measures every workload as interleaved rounds (A B C … A B
// C …) so that a slow phase of the machine is spread over all of them
// instead of landing on one, then runs the ladder once and one traced
// pass per workload.
func reportAll(ctx context.Context, seed int64, d time.Duration, path string) error {
	results := make(map[string]*runResult, len(workloads))
	for r := 0; r < reportRounds; r++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "round %d/%d: %s\n", r+1, reportRounds, w.name)
			res, err := measure(ctx, w, seed, d/reportRounds, windowsPerRun/reportRounds, minSetupReps)
			if err != nil {
				return err
			}
			if results[w.name] == nil {
				results[w.name] = &runResult{}
			}
			results[w.name].merge(res)
		}
	}
	fmt.Fprintln(os.Stderr, "ladder")
	rungs := make(map[string]float64)
	if err := ladder(ctx, seed, d/2, rungs); err != nil {
		return err
	}
	rep := report{Seed: seed, Seconds: d.Seconds(), Rounds: reportRounds,
		Ladder: make(map[string]metricValue), Workloads: make(map[string]*workloadReport)}
	failed := false
	for _, w := range workloads {
		res := results[w.name]
		line := endToEndLine(w, *res)
		failed = failed || !line.Correct
		wr := &workloadReport{Attempted: res.Attempted, Failed: res.Failed, Windows: res.Windows, EndToEnd: make(map[string]reportMetric)}
		for name, m := range line.Metrics {
			wr.EndToEnd[name] = reportMetric{Value: m.Value, Unit: m.Unit, Samples: samplesOf(name, *res)}
		}
		fmt.Fprintf(os.Stderr, "traced pass: %s\n", w.name)
		traced, err := tracedPass(ctx, w, seed, d, ".bench_build/trace-"+w.name+".json", rungs)
		if err != nil {
			return err
		}
		failed = failed || !traced.Correct
		wr.PerLayer = traced.Metrics
		for name := range rungs {
			rep.Ladder[name] = wr.PerLayer[name]
			delete(wr.PerLayer, name)
		}
		rep.Workloads[w.name] = wr
		fmt.Printf("== %s: %d attempted, %d failed\n", w.name, res.Attempted, res.Failed)
		printMetrics(line.Metrics)
	}
	if path != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one workload returned a wrong answer or left goroutines behind")
	}
	return nil
}

// samplesOf returns the samples behind an end-to-end metric's estimate.
func samplesOf(name string, res runResult) []float64 {
	switch name {
	case "setup_s":
		return res.SetupS
	case "ops_per_kref":
		out := make([]float64, len(res.Windows))
		for i, win := range res.Windows {
			out[i] = win.OpsPerKref
		}
		return out
	}
	return nil
}
