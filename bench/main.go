// Command declusterbench is the repository's benchmark: seven named
// workloads over the whole stack, measured end to end with tracing off
// and layer by layer in a separate traced pass. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	declusterbench --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//	declusterbench -seed N -out FILE                                every workload, interleaved rounds
//	declusterbench compare A.json B.json                            regression verdict per metric
//	declusterbench spec                                             print BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a single run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "spec":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(spec()); err != nil {
				fatal(err)
			}
			return
		}
	}
	var (
		name     = flag.String("workload", "", "workload to run (default: all of them, interleaved)")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time per workload")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		traceOut = flag.String("trace-out", "", "file the traced pass writes its spans to (default .bench_build/trace-<workload>.json)")
		out      = flag.String("out", "", "file the all-workload report is written to")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	d := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()

	if *name == "" {
		if err := reportAll(ctx, *seed, d, *out); err != nil {
			fatal(err)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	var line resultLine
	var err error
	if *trace == 0 {
		var res runResult
		if res, err = measure(ctx, w, *seed, d, windowsPerRun, 0); err == nil {
			printWindows(w, res)
			line = endToEndLine(w, res)
		}
	} else {
		path := *traceOut
		if path == "" {
			path = ".bench_build/trace-" + w.name + ".json"
		}
		line, err = tracedPass(ctx, w, *seed, d, path, nil)
	}
	if err != nil {
		fatal(err)
	}
	printMetrics(line.Metrics)
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fatal(err)
	}
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "declusterbench:", err)
	os.Exit(1)
}

// endToEndLine turns an untraced pass into the result line. A run is
// correct when verification passed (it got here), no timed op returned
// a wrong answer, and everything it started has stopped.
func endToEndLine(w *workload, res runResult) resultLine {
	values := map[string]float64{
		"setup_s":      median(res.SetupS),
		"ops_per_kref": opsPerKref(res.Windows),
		"heap_live_mb": res.HeapMB,
	}
	line := resultLine{
		Correct:   res.Failed == 0 && res.Leaked == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]metricValue, len(endToEnd)),
	}
	for _, m := range endToEnd {
		line.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	if res.Leaked > 0 {
		fmt.Fprintf(os.Stderr, "declusterbench: %s left %d goroutines running after close\n", w.name, res.Leaked)
	}
	return line
}

func printWindows(w *workload, res runResult) {
	fmt.Printf("workload %s: %d clients, closed loop\nset-up as timed (s): %.4f\nset-up at reference speed (s): %.4f\n", w.name, w.clients, res.SetupRawS, res.SetupS)
	fmt.Printf("%-7s %8s %7s %12s %10s %9s %12s\n", "window", "ops", "failed", "ops/s", "p50 ms", "ref ms", "ops/kref")
	for i, win := range res.Windows {
		fmt.Printf("%-7d %8d %7d %12.2f %10.4f %9.4f %12.4f\n", i, win.Ops, win.Failed, win.OpsPerS, win.P50Ms, win.RefMs, win.OpsPerKref)
	}
	fmt.Printf("median window %.2f ops/s, %d ops attempted, %d failed\n", opsPerS(res.Windows), res.Attempted, res.Failed)
}

func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
