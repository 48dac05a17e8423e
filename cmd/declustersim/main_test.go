package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"decluster/internal/cost"
	"decluster/internal/experiments"
)

func fastOpt() experiments.Options {
	return experiments.Options{Seed: 1, SampleLimit: 50}
}

func TestParseMetric(t *testing.T) {
	for name, want := range map[string]experiments.Metric{
		"meanrt":  experiments.MeanRT,
		"RATIO":   experiments.Ratio,
		"fracopt": experiments.FracOptimal,
		"worst":   experiments.WorstRT,
	} {
		got, err := parseMetric(name)
		if err != nil || got != want {
			t.Errorf("parseMetric(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseMetric("bogus"); err == nil {
		t.Error("bogus metric accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "bogus", settings{opt: fastOpt()}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSizeTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "size", settings{metric: experiments.Ratio, opt: fastOpt()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E3", "DM", "HCAM", "area=1024", "best per row:"} {
		if !strings.Contains(out, want) {
			t.Errorf("size output missing %q", want)
		}
	}
}

func TestRunSizeCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "size", settings{metric: experiments.Ratio, opt: fastOpt(), mode: modeCSV}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "query area,") {
		t.Errorf("CSV header missing: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if strings.Contains(out, "best per row") {
		t.Error("CSV output contains table footer")
	}
}

func TestRunTheorem(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "theorem", settings{opt: fastOpt()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "paper theorem confirmed") {
		t.Errorf("theorem output:\n%s", buf.String())
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1", settings{opt: fastOpt()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "holds") {
		t.Errorf("table1 output:\n%s", buf.String())
	}
}

func TestRunEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	opt := experiments.Options{Seed: 1, SampleLimit: 5}
	if err := run(&buf, "endtoend", settings{opt: opt}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E10") {
		t.Errorf("endtoend output:\n%s", buf.String())
	}
}

func TestRunPlotMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "size", settings{metric: experiments.Ratio, opt: fastOpt(), mode: modePlot}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "|") {
		t.Errorf("plot output malformed:\n%s", out)
	}
}

func TestRunPMShapeAttrs(t *testing.T) {
	for _, name := range []string{"pm", "shape", "attrs", "dbsize"} {
		var buf bytes.Buffer
		if err := run(&buf, name, settings{opt: fastOpt()}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

func TestRunRemainingExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier experiment defaults")
	}
	opt := experiments.Options{Seed: 1, SampleLimit: 20}
	for _, name := range []string{
		"disks-small", "disks-large", "batch", "skew", "drift", "replication", "load",
	} {
		var buf bytes.Buffer
		if err := run(&buf, name, settings{opt: opt}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

func TestRunAvailability(t *testing.T) {
	var buf bytes.Buffer
	avail := experiments.AvailabilityConfig{GridSide: 16, Disks: 8, MaxFailed: 2, FailTrials: 2}
	if err := run(&buf, "availability", settings{opt: fastOpt(), avail: avail}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EA", "chain", "offset+", "fault drill", "unavail", "without replication"} {
		if !strings.Contains(out, want) {
			t.Errorf("availability output missing %q:\n%s", want, out)
		}
	}
}

func TestRunChaos(t *testing.T) {
	var buf bytes.Buffer
	chaos := experiments.ChaosConfig{
		GridSide: 8, Disks: 4, Records: 512, Clients: 6,
		Duration: 60 * time.Millisecond, BaseLatency: 50 * time.Microsecond,
		Offset: 2, Methods: []string{"HCAM"},
	}
	if err := run(&buf, "chaos", settings{opt: fastOpt(), chaos: chaos}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EC", "goodput", "p999", "+hedge", "hedging effect"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos output missing %q:\n%s", want, out)
		}
	}
}

func TestChaosNotInAll(t *testing.T) {
	for _, n := range order {
		if n == "chaos" {
			t.Error("chaos must not run as part of -experiment all")
		}
	}
}

func TestRunRecovery(t *testing.T) {
	var buf bytes.Buffer
	recovery := experiments.RecoveryConfig{
		GridSide: 8, Disks: 4, Records: 512, PageCapacity: 4, Clients: 4,
		Steady: 30 * time.Millisecond, Cooldown: 20 * time.Millisecond,
		BaseLatency: 50 * time.Microsecond, CorruptProb: 0.05,
		RebuildRates: []float64{0}, Offset: 2, Methods: []string{"HCAM"},
	}
	if err := run(&buf, "recovery", settings{opt: fastOpt(), recovery: recovery}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ER", "MTTR", "chain", "offset+2", "trade-off"} {
		if !strings.Contains(out, want) {
			t.Errorf("recovery output missing %q:\n%s", want, out)
		}
	}
}

func TestRecoveryNotInAll(t *testing.T) {
	for _, n := range order {
		if n == "recovery" {
			t.Error("recovery must not run as part of -experiment all")
		}
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates(" 100, 400,1600 ")
	if err != nil || len(rates) != 3 || rates[0] != 100 || rates[2] != 1600 {
		t.Errorf("parseRates = %v, %v", rates, err)
	}
	if got, err := parseRates(""); err != nil || got != nil {
		t.Errorf("empty parseRates = %v, %v", got, err)
	}
	if _, err := parseRates("fast"); err == nil {
		t.Error("non-numeric rate accepted")
	}
	if _, err := parseRates("-5"); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestRunWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("witness extraction is seconds-scale")
	}
	var buf bytes.Buffer
	if err := run(&buf, "witness", settings{opt: fastOpt()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "M=7") || !strings.Contains(out, "unsatisfiable") {
		t.Errorf("witness output malformed:\n%s", out)
	}
}

// -parallel and -kernel flow into the sweep engine; every combination
// must print the same table, and an exhaustive disk sweep must carry
// its substitution warning into the artifact.
func TestRunParallelKernelIdentical(t *testing.T) {
	var want string
	for _, opt := range []experiments.Options{
		{Seed: 1, SampleLimit: 50, Parallel: 1, Kernel: cost.KernelWalk},
		{Seed: 1, SampleLimit: 50, Parallel: 8, Kernel: cost.KernelPrefix},
		{Seed: 1, SampleLimit: 50, Parallel: 3, Kernel: cost.KernelAuto},
	} {
		var buf bytes.Buffer
		if err := run(&buf, "disks-large", settings{opt: opt}); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = buf.String()
		} else if buf.String() != want {
			t.Fatalf("output differs for %+v", opt)
		}
	}
}

func TestRunExhaustiveDisksWarns(t *testing.T) {
	var buf bytes.Buffer
	opt := experiments.Options{Seed: 1, Exhaustive: true}
	if err := run(&buf, "disks-small", settings{opt: opt}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "warning: E6") || !strings.Contains(out, "sampled 2000") {
		t.Errorf("exhaustive disks output missing warning: %q", out[:120])
	}
}

func TestRunCluster(t *testing.T) {
	var buf bytes.Buffer
	clusterCfg := experiments.ClusterChaosConfig{
		GridSide: 8, Nodes: 4, DisksPerNode: 4, Records: 512, Clients: 4,
		Duration: 100 * time.Millisecond, BaseLatency: 100 * time.Microsecond,
	}
	if err := run(&buf, "cluster", settings{opt: fastOpt(), cluster: clusterCfg}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EN", "placement", "chain", "offset+2", "node-loss", "rolling-restart", "replay with -seed"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster output missing %q:\n%s", want, out)
		}
	}
}

// TestCheckFlagScope pins the silent-ignore fix: a soak-only flag
// passed to an experiment that never reads it must be rejected, while
// the same flag under a consuming experiment (including the implied
// spellings) passes.
func TestCheckFlagScope(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	for _, tc := range []struct {
		experiment string
		passed     map[string]bool
		wantErr    string // substring; "" = accept
	}{
		// The bug: soak knobs under the default sweep were silently dropped.
		{"all", set("qps"), "-qps"},
		{"all", set("soak"), "-soak"},
		{"size", set("clients"), "-clients"},
		{"table1", set("hedge-after"), "-hedge-after"},
		{"chaos", set("flash-crowd"), "-flash-crowd"},
		{"batch-goodput", set("qps"), "-qps"},
		{"batch-goodput", set("hedge-after"), "-hedge-after"},
		{"size", set("rebuild-rate"), "-rebuild-rate"},
		{"chaos", set("corrupt-prob"), "-corrupt-prob"},
		{"chaos", set("nodes"), "-nodes"},
		{"size", set("fail-disks"), "-fail-disks"},
		// Observability flags under an experiment that never attaches the
		// sink printed an empty registry and exited 0.
		{"table1", set("metrics"), "-metrics"},
		{"all", set("trace-slowest"), "-trace-slowest"},
		{"availability", set("http"), "-http"},
		// Consumed: the flag reaches its experiment.
		{"chaos", set("soak", "qps", "clients", "hedge-after"), ""},
		{"cluster", set("soak", "clients", "hedge-after", "nodes", "flash-crowd", "migrate-rate"), ""},
		{"batch-goodput", set("soak", "clients"), ""},
		{"recovery", set("rebuild-rate", "corrupt-prob"), ""},
		{"availability", set("fail-disks", "fail-prob"), ""},
		{"chaos", set("metrics", "trace-slowest", "http"), ""},
		{"recovery", set("metrics"), ""},
		{"cluster", set("trace-slowest"), ""},
		{"batch-goodput", set("metrics", "http"), ""},
		{"all", set("fail-disks"), ""}, // the default sweep runs availability
		// Unscoped flags are everyone's business.
		{"size", set("seed", "samples", "metric"), ""},
		{"all", nil, ""},
	} {
		err := checkFlagScope(tc.experiment, tc.passed)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("checkFlagScope(%q, %v) rejected: %v", tc.experiment, tc.passed, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("checkFlagScope(%q, %v) accepted; want error naming %s", tc.experiment, tc.passed, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), tc.experiment) {
			t.Errorf("checkFlagScope(%q, %v) error %q does not name the flag and experiment", tc.experiment, tc.passed, err)
		}
	}
}
