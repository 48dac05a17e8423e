// Command declustersim regenerates the tables and figures of the
// reproduced declustering study (Himatsingka & Srivastava, ICDE 1994)
// as plain-text tables.
//
// Usage:
//
//	declustersim [flags]
//
//	-experiment  which artifact to regenerate: all, table1, theorem,
//	             size, shape, attrs, disks-small, disks-large, dbsize,
//	             pm, endtoend, availability, chaos, recovery, cluster,
//	             batch-goodput (default all; chaos, recovery, cluster,
//	             and batch-goodput are excluded from all — they are
//	             wall-clock soaks)
//	-metric      meanrt | ratio | fracopt | worst (default meanrt)
//	-samples     query placements sampled per workload (default 2000)
//	-seed        sampling seed (default 1)
//	-exhaustive  disable sampling (exhaustive placements); experiments
//	             that cannot honour it (open-ended query bands) say so
//	             in a printed warning
//	-random      include the balanced-random baseline
//	-parallel    sweep-engine workers (default 0 = every CPU; results
//	             are byte-identical at any setting)
//	-kernel      response-time kernel: auto, walk, or prefix (default
//	             auto — prefix summed-area tables when they fit the
//	             memory budget, table walk otherwise)
//	-fail-disks  availability: maximum simultaneously failed disks
//	             (default 2; 0 disables the failure sweep)
//	-fail-prob   availability: transient read-error probability of the
//	             end-to-end fault drill (default 0.3; 0 disables
//	             transient errors)
//	-soak        chaos, cluster, batch-goodput: soak duration per table
//	             cell; passing it alone implies -experiment chaos
//	             (default 1s; batch-goodput 600ms)
//	-qps         chaos: total target arrival rate (default 0 =
//	             closed-loop clients)
//	-clients     chaos, cluster, batch-goodput: concurrent query
//	             clients (default 12; cluster 8)
//	-hedge-after chaos, cluster: hedged-read delay (default 2.5× the
//	             simulated base read latency; cluster 4×)
//	-rebuild-rate recovery: comma-separated rebuild throttles in
//	             pages/sec, one table cell each per replication scheme;
//	             0 means unthrottled (default 50,200,1600)
//	-nodes       cluster: cluster size N — one HTTP server per node on
//	             loopback (default 4)
//	-replicas    cluster: copies per shard of the replicated placements
//	             (default 2); the fault schedule replays from the
//	             printed -seed
//	-join        cluster: run the online-join migration scenario; any of
//	             -join/-leave/-partition narrows the run to exactly the
//	             scenarios named (default: all five chaos scenarios)
//	-leave       cluster: run the online-leave migration scenario
//	-partition   cluster: run the partition-then-heal scenario
//	-flash-crowd cluster: run the flash-crowd load surge against static
//	             membership
//	-autopilot   cluster: run the flash-crowd surge with the autopilot
//	             membership controller attached — it joins the standby
//	             when windowed p99 crosses the -autopilot-p99 bound
//	-blinking    cluster: run the blinking-partition adversarial
//	             schedule against the autopilot (fuses must hold, zero
//	             thrash)
//	-spike-factor cluster: flash-crowd surge intensity — open-loop
//	             issuers hammering the seeded hot region (default 2)
//	-autopilot-p99 cluster: autopilot scale-up trigger and stated p99
//	             bound (default 10× base latency)
//	-migrate-rate cluster: throttle join/leave bucket copies in
//	             pages/sec (default 0 = unthrottled; autopilot
//	             migrations obey it too)
//	-corrupt-prob recovery: per-page silent-corruption probability of
//	             the seeded rot plan (default 0.02)
//	-metrics     soaks: dump the observability registry after the run
//	             as "table" or "csv" (the four wall-clock soaks are the
//	             instrumented experiments)
//	-trace-slowest soaks: record per-query lifecycle traces and print
//	             the N slowest span trees after the run
//	-http        soaks: serve live metrics (/metrics JSON, /metrics.txt,
//	             /metrics.csv, /traces) and /debug/pprof on this
//	             address while the run executes
//
// Examples:
//
//	declustersim -experiment size -metric ratio
//	declustersim -experiment theorem
//	declustersim -experiment availability -fail-disks 3 -fail-prob 0.5 -seed 7
//	declustersim -experiment batch-goodput -soak 1s -clients 16
//	declustersim -soak 1s -clients 16 -hedge-after 600us
//	declustersim -soak 1s -metrics table -trace-slowest 3 -http :8080
//	declustersim -experiment recovery -rebuild-rate 200,800 -corrupt-prob 0.05
//	declustersim -experiment cluster -nodes 6 -replicas 2 -soak 1s -seed 42
//	declustersim -experiment cluster -join -leave -migrate-rate 400 -soak 1s
//	declustersim -experiment cluster -partition -soak 2s -seed 9
//	declustersim -flash-crowd -autopilot -soak 8s -migrate-rate 800 -seed 42
//	declustersim -blinking -soak 4s -seed 42
//	declustersim -experiment all -samples 500
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"decluster/internal/cost"
	"decluster/internal/experiments"
	"decluster/internal/grid"
	"decluster/internal/obs"
	"decluster/internal/optimality"
	"decluster/internal/table"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "artifact to regenerate: all, "+strings.Join(slices.Concat(order, soaks), ", "))
		metric      = flag.String("metric", "meanrt", "metric to print: meanrt, ratio, fracopt, worst")
		samples     = flag.Int("samples", 2000, "query placements sampled per workload")
		seed        = flag.Int64("seed", 1, "sampling seed")
		exhaustive  = flag.Bool("exhaustive", false, "disable sampling")
		random      = flag.Bool("random", false, "include the balanced-random baseline")
		parallel    = flag.Int("parallel", 0, "sweep-engine workers (0 = every CPU)")
		kernelName  = flag.String("kernel", "auto", "response-time kernel: auto, walk, prefix")
		csvOut      = flag.Bool("csv", false, "emit sweep experiments as CSV instead of tables")
		plotOut     = flag.Bool("plot", false, "render sweep experiments as ASCII charts instead of tables")
		failDisks   = flag.Int("fail-disks", 2, "availability experiment: maximum simultaneously failed disks")
		failProb    = flag.Float64("fail-prob", 0.3, "availability experiment: transient read-error probability of the fault drill")
		soak        = flag.Duration("soak", 0, "chaos, cluster, batch-goodput: soak duration per cell (alone, implies -experiment chaos; default 1s, batch-goodput 600ms)")
		qps         = flag.Float64("qps", 0, "chaos experiment: total target arrival rate (0 = closed-loop)")
		clients     = flag.Int("clients", 0, "chaos, cluster, batch-goodput: concurrent query clients (default 12, cluster 8)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "chaos, cluster: hedged-read delay (default 2.5× base latency, cluster 4×)")
		rebuildRate = flag.String("rebuild-rate", "", "recovery experiment: comma-separated rebuild throttles in pages/sec (0 = unthrottled; default 50,200,1600)")
		nodes       = flag.Int("nodes", 0, "cluster experiment: cluster size N (default 4)")
		replicas    = flag.Int("replicas", 0, "cluster experiment: copies per shard of the replicated placements (default 2)")
		joinScen    = flag.Bool("join", false, "cluster experiment: run the online-join migration scenario (narrows the scenario set)")
		leaveScen   = flag.Bool("leave", false, "cluster experiment: run the online-leave migration scenario (narrows the scenario set)")
		partScen    = flag.Bool("partition", false, "cluster experiment: run the partition-then-heal scenario (narrows the scenario set)")
		flashScen   = flag.Bool("flash-crowd", false, "cluster experiment: run the flash-crowd load-surge scenario, static membership (narrows the scenario set)")
		autoScen    = flag.Bool("autopilot", false, "cluster experiment: run the flash-crowd scenario with the autopilot membership controller attached (narrows the scenario set)")
		blinkScen   = flag.Bool("blinking", false, "cluster experiment: run the blinking-partition adversarial scenario against the autopilot (narrows the scenario set)")
		spikeFactor = flag.Float64("spike-factor", 0, "cluster experiment: flash-crowd surge intensity on the hot region (default 2)")
		autoP99     = flag.Duration("autopilot-p99", 0, "cluster experiment: autopilot scale-up p99 trigger and stated bound (default 10× base latency)")
		migrateRate = flag.Float64("migrate-rate", 0, "cluster experiment: join/leave copy throttle in pages/sec (0 = unthrottled)")
		corruptProb = flag.Float64("corrupt-prob", 0, "recovery experiment: per-page silent-corruption probability (default 0.02)")
		metricsOut  = flag.String("metrics", "", "soak experiments: dump the observability registry after the run: table or csv")
		traceSlow   = flag.Int("trace-slowest", 0, "soak experiments: record per-query traces and print the N slowest span trees after the run")
		httpAddr    = flag.String("http", "", "soak experiments: serve live metrics, traces, and pprof on this address (e.g. :8080) while the run executes")
	)
	flag.Parse()

	m, err := parseMetric(*metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *parallel < 0 {
		fmt.Fprintln(os.Stderr, "declustersim: -parallel must be ≥ 0")
		os.Exit(2)
	}
	kernel, err := cost.ParseKernel(*kernelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "declustersim:", err)
		os.Exit(2)
	}
	set := settings{metric: m, opt: experiments.Options{
		Seed:          *seed,
		SampleLimit:   *samples,
		Exhaustive:    *exhaustive,
		IncludeRandom: *random,
		Parallel:      *parallel,
		Kernel:        kernel,
	}}
	if *csvOut {
		set.mode = modeCSV
	}
	if *plotOut {
		set.mode = modePlot
	}
	if *failDisks < 0 {
		fmt.Fprintln(os.Stderr, "declustersim: -fail-disks must be ≥ 0")
		os.Exit(2)
	}
	if *failProb < 0 || *failProb >= 1 {
		fmt.Fprintln(os.Stderr, "declustersim: -fail-prob must be in [0, 1)")
		os.Exit(2)
	}
	set.avail = experiments.AvailabilityConfig{
		MaxFailed:     *failDisks,
		TransientProb: *failProb,
	}
	// Zero is meaningful for both flags (no failure sweep, no transient
	// errors) but is also the config's selects-the-default value, so an
	// explicitly passed 0 becomes the config's negative sentinel.
	flag.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "fail-disks":
			if *failDisks == 0 {
				set.avail.MaxFailed = -1
			}
		case "fail-prob":
			if *failProb == 0 {
				set.avail.TransientProb = -1
			}
		}
	})
	if *soak < 0 || *qps < 0 || *clients < 0 || *hedgeAfter < 0 {
		fmt.Fprintln(os.Stderr, "declustersim: -soak, -qps, -clients, and -hedge-after must be ≥ 0")
		os.Exit(2)
	}
	set.chaos = experiments.ChaosConfig{
		Duration:   *soak,
		QPS:        *qps,
		Clients:    *clients,
		HedgeAfter: *hedgeAfter,
	}
	set.goodput = experiments.BatchGoodputConfig{Duration: *soak, Clients: *clients}
	if *nodes < 0 || *replicas < 0 || *migrateRate < 0 || *spikeFactor < 0 || *autoP99 < 0 {
		fmt.Fprintln(os.Stderr, "declustersim: -nodes, -replicas, -migrate-rate, -spike-factor, and -autopilot-p99 must be ≥ 0")
		os.Exit(2)
	}
	set.cluster = experiments.ClusterChaosConfig{
		Nodes:        *nodes,
		Replicas:     *replicas,
		Duration:     *soak,
		Clients:      *clients,
		HedgeAfter:   *hedgeAfter,
		MigrateRate:  *migrateRate,
		SpikeFactor:  *spikeFactor,
		AutopilotP99: *autoP99,
	}
	// Naming any scenario flag narrows the run to exactly the scenarios
	// named; naming none keeps the default five-scenario sweep.
	var scenarios []string
	if *partScen {
		scenarios = append(scenarios, "partition")
	}
	if *joinScen {
		scenarios = append(scenarios, "join")
	}
	if *leaveScen {
		scenarios = append(scenarios, "leave")
	}
	if *flashScen {
		scenarios = append(scenarios, "flash-crowd")
	}
	if *autoScen {
		scenarios = append(scenarios, "flash-crowd+autopilot")
	}
	if *blinkScen {
		scenarios = append(scenarios, "blinking-partition")
	}
	set.cluster.Scenarios = scenarios
	if *corruptProb < 0 || *corruptProb >= 1 {
		fmt.Fprintln(os.Stderr, "declustersim: -corrupt-prob must be in [0, 1)")
		os.Exit(2)
	}
	rates, err := parseRates(*rebuildRate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "declustersim:", err)
		os.Exit(2)
	}
	set.recovery = experiments.RecoveryConfig{
		RebuildRates: rates,
		CorruptProb:  *corruptProb,
	}
	if *metricsOut != "" && *metricsOut != "table" && *metricsOut != "csv" {
		fmt.Fprintf(os.Stderr, "declustersim: -metrics must be table or csv, got %q\n", *metricsOut)
		os.Exit(2)
	}
	if *traceSlow < 0 {
		fmt.Fprintln(os.Stderr, "declustersim: -trace-slowest must be ≥ 0")
		os.Exit(2)
	}
	var sink *obs.Sink
	if *metricsOut != "" || *traceSlow > 0 || *httpAddr != "" {
		sink = obs.NewSink()
		if *traceSlow > 0 {
			sink.EnableTracing(*traceSlow)
		}
		set.chaos.Obs = sink
		set.recovery.Obs = sink
		set.cluster.Obs = sink
		set.goodput.Obs = sink
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "declustersim:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "declustersim: observability on http://%s/metrics (live for the run)\n", ln.Addr())
		go http.Serve(ln, sink.Handler())
	}
	name := *experiment
	// -soak alone is enough to ask for the chaos soak, and a scenario
	// flag alone for the cluster soak; don't make the user also spell
	// -experiment. The scenario flags win: they exist only for cluster.
	if name == "all" && (*soak > 0 || len(scenarios) > 0) {
		expSet := false
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "experiment" {
				expSet = true
			}
		})
		if !expSet {
			name = "chaos"
			if len(scenarios) > 0 {
				name = "cluster"
			}
		}
	}
	passed := make(map[string]bool)
	flag.Visit(func(fl *flag.Flag) { passed[fl.Name] = true })
	if err := checkFlagScope(name, passed); err != nil {
		fmt.Fprintln(os.Stderr, "declustersim:", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, name, set); err != nil {
		fmt.Fprintln(os.Stderr, "declustersim:", err)
		os.Exit(1)
	}
	if err := dumpObs(os.Stdout, sink, *metricsOut, *traceSlow); err != nil {
		fmt.Fprintln(os.Stderr, "declustersim:", err)
		os.Exit(1)
	}
}

// dumpObs writes the end-of-run observability artifacts: the metric
// registry in the requested format, then the slowest recorded traces as
// span trees. A nil sink no-ops (observability was never requested).
func dumpObs(w io.Writer, sink *obs.Sink, metricsMode string, traceN int) error {
	if sink == nil {
		return nil
	}
	switch metricsMode {
	case "table":
		fmt.Fprintln(w, "\n== metrics ==")
		if err := sink.Registry().WriteTable(w); err != nil {
			return err
		}
	case "csv":
		if err := sink.Registry().WriteCSV(w); err != nil {
			return err
		}
	}
	if traceN > 0 {
		traces := sink.SlowestTraces()
		fmt.Fprintf(w, "\n== slowest %d traces ==\n", len(traces))
		for _, tr := range traces {
			if err := tr.RenderTree(w); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseMetric(s string) (experiments.Metric, error) {
	switch strings.ToLower(s) {
	case "meanrt":
		return experiments.MeanRT, nil
	case "ratio":
		return experiments.Ratio, nil
	case "fracopt":
		return experiments.FracOptimal, nil
	case "worst":
		return experiments.WorstRT, nil
	default:
		return 0, fmt.Errorf("unknown metric %q (meanrt, ratio, fracopt, worst)", s)
	}
}

// parseRates parses the -rebuild-rate list ("100,400,1600"); empty
// means the recovery experiment's defaults.
func parseRates(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-rebuild-rate: %q is not a number", part)
		}
		if r < 0 {
			return nil, fmt.Errorf("-rebuild-rate: %v must be ≥ 0 (0 = unthrottled)", r)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// order lists the experiments -experiment all runs, in the paper's
// presentation order.
var order = []string{
	"table1", "theorem", "size", "shape", "attrs",
	"disks-small", "disks-large", "dbsize", "pm", "endtoend",
	"batch", "skew", "drift", "replication", "availability", "load", "witness",
}

// soaks run by name only, never in "all": they burn wall-clock time by design
// and their numbers vary run to run. Only they attach the observability sink.
var soaks = []string{"chaos", "recovery", "cluster", "batch-goodput"}

// scopedFlags maps each flag that only specific experiments read to
// those experiments. "all" appears only where the default sweep
// actually reaches the consumer (availability); the soak experiments
// are excluded from "all", so their knobs are not consumed there.
var scopedFlags = map[string][]string{
	"soak":          {"chaos", "cluster", "batch-goodput"},
	"qps":           {"chaos"},
	"clients":       {"chaos", "cluster", "batch-goodput"},
	"hedge-after":   {"chaos", "cluster"},
	"nodes":         {"cluster"},
	"replicas":      {"cluster"},
	"join":          {"cluster"},
	"leave":         {"cluster"},
	"partition":     {"cluster"},
	"flash-crowd":   {"cluster"},
	"autopilot":     {"cluster"},
	"blinking":      {"cluster"},
	"spike-factor":  {"cluster"},
	"autopilot-p99": {"cluster"},
	"migrate-rate":  {"cluster"},
	"rebuild-rate":  {"recovery"},
	"corrupt-prob":  {"recovery"},
	"fail-disks":    {"availability", "all"},
	"fail-prob":     {"availability", "all"},
	"metrics":       soaks,
	"trace-slowest": soaks,
	"http":          soaks,
}

// checkFlagScope rejects explicitly passed flags the selected
// experiment never reads. Before this check such flags were silently
// ignored — `-qps 500` without `-experiment chaos` ran the default
// sweep at full tilt and reported numbers for a run the user never
// asked for. The experiment name is the one after -soak/scenario-flag
// implication, so the convenience spellings still work.
func checkFlagScope(experiment string, passed map[string]bool) error {
	names := make([]string, 0, len(passed))
	for n := range passed {
		if _, ok := scopedFlags[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		consumers := scopedFlags[n]
		if !slices.Contains(consumers, experiment) {
			return fmt.Errorf("-%s is read only by -experiment %s and would be silently ignored by %q",
				n, strings.Join(consumers, "|"), experiment)
		}
	}
	return nil
}

// outputMode selects how sweep experiments are rendered.
type outputMode int

const (
	modeTable outputMode = iota
	modeCSV
	modePlot
)

// settings is what a run reads besides the experiment's name.
type settings struct {
	metric   experiments.Metric
	opt      experiments.Options
	mode     outputMode
	avail    experiments.AvailabilityConfig
	chaos    experiments.ChaosConfig
	recovery experiments.RecoveryConfig
	cluster  experiments.ClusterChaosConfig
	goodput  experiments.BatchGoodputConfig
}

// run executes one experiment (or all of order) and writes its artifact
// to w in the chosen output mode.
func run(w io.Writer, name string, set settings) error {
	if name == "all" {
		for _, n := range order {
			if err := run(w, n, set); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	switch name {
	case "table1":
		t, err := experiments.Table1Report([]int{16, 16}, 8)
		if err != nil {
			return err
		}
		fmt.Fprint(w, t)
	case "theorem":
		res, err := experiments.Theorem(experiments.TheoremConfig{})
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Table())
		if res.HoldsPaperTheorem() {
			fmt.Fprintln(w, "paper theorem confirmed: no strictly optimal declustering exists for M > 5")
		} else {
			fmt.Fprintln(w, "WARNING: paper theorem NOT confirmed on this sweep")
		}
	case "size":
		e, err := experiments.QuerySize(experiments.SizeConfig{}, set.opt)
		return printExperiment(w, e, err, set.metric, set.mode)
	case "shape":
		e, err := experiments.QueryShape(experiments.ShapeConfig{}, set.opt)
		return printExperiment(w, e, err, set.metric, set.mode)
	case "attrs":
		e, err := experiments.Attributes(experiments.AttrsConfig{}, set.opt)
		return printExperiment(w, e, err, set.metric, set.mode)
	case "disks-small":
		e, err := experiments.DisksSmall(experiments.DisksConfig{}, set.opt)
		return printExperiment(w, e, err, set.metric, set.mode)
	case "disks-large":
		e, err := experiments.DisksLarge(experiments.DisksConfig{}, set.opt)
		return printExperiment(w, e, err, set.metric, set.mode)
	case "dbsize":
		e, err := experiments.DatabaseSize(experiments.DBSizeConfig{}, set.opt)
		return printExperiment(w, e, err, set.metric, set.mode)
	case "pm":
		e, err := experiments.PartialMatch(experiments.PMConfig{}, set.opt)
		return printExperiment(w, e, err, set.metric, set.mode)
	case "endtoend":
		res, err := experiments.EndToEnd(experiments.EndToEndConfig{}, set.opt)
		return printTable(w, res, err)
	case "batch":
		res, err := experiments.Batch(experiments.BatchConfig{}, set.opt)
		return printTable(w, res, err)
	case "skew":
		res, err := experiments.Skew(experiments.SkewConfig{}, set.opt)
		return printTable(w, res, err)
	case "drift":
		res, err := experiments.Drift(experiments.DriftConfig{}, set.opt)
		return printTable(w, res, err)
	case "replication":
		res, err := experiments.Replication(experiments.ReplicationConfig{}, set.opt)
		return printTable(w, res, err)
	case "availability":
		res, err := experiments.Availability(set.avail, set.opt)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Table())
		fmt.Fprint(w, res.DrillReport())
	case "load":
		res, err := experiments.Load(experiments.LoadConfig{}, set.opt)
		return printTable(w, res, err)
	case "chaos":
		res, err := experiments.Chaos(set.chaos, set.opt)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Table())
		fmt.Fprint(w, res.HedgeReport())
	case "recovery":
		res, err := experiments.Recovery(set.recovery, set.opt)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Table())
		fmt.Fprint(w, res.ThrottleReport())
	case "cluster":
		res, err := experiments.ClusterChaos(set.cluster, set.opt)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Table())
		fmt.Fprintf(w, "fault schedules are pure functions of the seed; replay with -seed %d\n", res.Seed)
	case "batch-goodput":
		res, err := experiments.BatchGoodput(set.goodput, set.opt)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Table())
		fmt.Fprint(w, res.AggregateReport())
	case "witness":
		return printWitnesses(w)
	default:
		return fmt.Errorf("unknown experiment %q (try: all, %s)", name, strings.Join(slices.Concat(order, soaks), ", "))
	}
	return nil
}

// printWitnesses extracts and prints the minimal query-shape cores of
// the impossibility theorem on cheap witness grids.
func printWitnesses(w io.Writer) error {
	fmt.Fprintln(w, "minimal query-shape cores proving no strictly optimal allocation exists")
	for _, tc := range []struct {
		dims []int
		m    int
	}{
		{[]int{4, 4}, 4},
		{[]int{3, 6}, 6},
		{[]int{7, 7}, 7},
	} {
		g, err := grid.New(tc.dims...)
		if err != nil {
			return err
		}
		core, err := optimality.MinimalWitness(g, tc.m, 100_000_000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %v grid, M=%d: shapes %v\n", g, tc.m, core)
	}
	fmt.Fprintln(w, "every placement of just these shapes is already unsatisfiable;")
	fmt.Fprintln(w, "dropping any one shape admits an allocation.")
	return nil
}

// printTable writes an experiment whose artifact is one table.
func printTable(w io.Writer, res interface{ Table() *table.Table }, err error) error {
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Table())
	return nil
}

func printExperiment(w io.Writer, e *experiments.Experiment, err error, metric experiments.Metric, mode outputMode) error {
	if err != nil {
		return err
	}
	// Warnings travel with the artifact on every output mode (CSV
	// warnings go to stderr so the data stream stays parseable): data
	// that deviates from what was asked must say so.
	warnTo := w
	if mode == modeCSV {
		warnTo = os.Stderr
	}
	for _, warn := range e.Warnings {
		fmt.Fprintf(warnTo, "warning: %s: %s\n", e.ID, warn)
	}
	switch mode {
	case modeCSV:
		return e.WriteCSV(w, metric)
	case modePlot:
		fmt.Fprint(w, e.Chart(metric))
		return nil
	default:
		fmt.Fprint(w, e.Table(metric))
		fmt.Fprintf(w, "best per row: %s\n", strings.Join(e.Best(metric), ", "))
		return nil
	}
}
