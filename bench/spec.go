package main

// This file is the benchmark's contract: every workload and metric name
// the program can emit. BENCHMARK.json at the repository root is this
// table rendered as JSON (`declusterbench spec`), and a test pins the two
// to each other, so a later change cannot cite a name that is not
// measured or measure a name that is not declared.

// runSeconds is how long one run measures; the driver passes it back as
// --seconds.
const runSeconds = 10

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkSpec struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadSpec  `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

var workloadSpecs = []workloadSpec{
	{"node-large", "Scheduler.Search of a 48x48 rect: gridfile+exec+serve do all the work, no wire; prices the serve tax over the bare executor"},
	{"cluster-large", "Router.Search of a 48x48 rect (~28k records): per-record cost dominates - wire encode/decode and the gather copy"},
	{"cluster-small", "Router.Search of a 6x6 rect (~440 records): per-request cost dominates - round trip, envelope, admission, scatter"},
	{"cluster-agg", "Router.Aggregate COUNT/SUM/MIN/MAX, side 4..48: same node/router/wire layers with zero bucket reads and no record payload"},
	{"cluster-straggler", "cluster-small queries with node 2 slowed 20 ms and a 3 ms hedge: retry/hedge/loser-cancel code does most of the work"},
	{"sweep", "one round of the paper's seven evaluation sweeps: only the cost kernels, allocators and query generators run"},
	{"ingest", "stream 200k records into a dynamic grid file with a delta-maintained prefix kernel queried every 10th insert: writes beside reads"},
}

// endToEnd are the bounded numbers; each is reported for every workload
// and is never zero. Throughput is reported against the benchmark's own
// reference op measured beside every window (ops per thousand reference
// ops), because on this shared box raw ops per second swings 20 % with
// the neighbours for minutes at a time. Raw ops/s, latencies and tails,
// the paper's RT/optimum ratio and the failure ratio are deliberately
// not here: see bench/README.md, "What is not an end-to-end metric".
var endToEnd = []boundedMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_kref", "ops/kref", "higher", 0.25},
	{"heap_live_mb", "MB", "lower", 0.15},
}

func lm(name, unit, better string) layerMetric { return layerMetric{name, unit, better} }

// perLayer is reported by a --trace 1 run. The first block comes from
// the workload's own windows, the second from the workload's traced
// window, the rest from the fixed ladder on the canonical rects
// (L = 48x48, S = 6x6) that every traced run repeats.
var perLayer = []layerMetric{
	// Workload windows, hooks off.
	lm("lat.p50_ms", "ms", "lower"),
	lm("lat.tail_ms", "ms", "lower"),
	lm("lat.tail_pct", "%", "higher"),
	lm("lat.samples", "count", "higher"),
	lm("proc.cpu_ms_per_op", "ms", "lower"),
	lm("proc.allocs_per_op", "count", "lower"),
	lm("proc.alloc_kb_per_op", "KB", "lower"),
	lm("proc.gc_pause_ms", "ms", "lower"),
	lm("proc.peak_rss_mb", "MB", "lower"),
	lm("proc.calib_ms", "ms", "lower"),
	lm("ops_per_s", "1/s", "higher"),
	// Workload traced window.
	lm("trace.root_ms", "ms", "lower"),
	lm("trace.share.router_pct", "%", "lower"),
	lm("trace.share.wire_pct", "%", "lower"),
	lm("trace.share.node_pct", "%", "lower"),
	lm("trace.share.serve_pct", "%", "lower"),
	lm("trace.share.read_pct", "%", "lower"),
	lm("trace.share.kernel_pct", "%", "lower"),
	lm("trace.share.write_pct", "%", "lower"),
	lm("trace.sum_error_pct", "%", "lower"),
	lm("trace.overhead_pct", "%", "lower"),
	lm("cluster.legs_per_op", "count", "lower"),
	lm("cluster.wire.req_bytes_per_op", "B", "lower"),
	lm("cluster.wire.resp_bytes_per_op", "B", "lower"),
	lm("cluster.router.hedges_per_op", "count", "lower"),
	lm("cluster.router.hedge_win_ratio", "ratio", "higher"),
	lm("cluster.router.retries_per_op", "count", "lower"),
	lm("exec.reads_per_op", "count", "lower"),
	lm("quality.rt_over_opt", "ratio", "lower"),
	lm("quality.model_mismatch", "count", "lower"),
	lm("dyngrid.splits_per_round", "count", "lower"),
	lm("dyngrid.retiles_per_round", "count", "lower"),
	// Ladder: kernels and storage.
	lm("cost.prefix_rt.ns_per_op", "ns", "lower"),
	lm("cost.walk_rt.ns_per_op", "ns", "lower"),
	lm("cost.apply_delta.ns_per_op", "ns", "lower"),
	lm("dyngrid.insert.ns_per_op", "ns", "lower"),
	lm("alloc.hcam_build.ms", "ms", "lower"),
	lm("gridfile.insert_all.ms", "ms", "lower"),
	lm("gridfile.bucket_scan.ns_per_op", "ns", "lower"),
	// Ladder: executor and serving.
	lm("exec.rangesearch.L.ns_per_op", "ns", "lower"),
	lm("exec.rangesearch.S.ns_per_op", "ns", "lower"),
	lm("exec.rangesearch.L.allocs_per_op", "count", "lower"),
	lm("exec.rangesearch.S.allocs_per_op", "count", "lower"),
	lm("serve.search_plain.L.ns_per_op", "ns", "lower"),
	lm("serve.search_plain.S.ns_per_op", "ns", "lower"),
	lm("serve.search.L.ns_per_op", "ns", "lower"),
	lm("serve.search.S.ns_per_op", "ns", "lower"),
	lm("serve.hedges_per_op", "count", "lower"),
	lm("exec.attempts_per_read", "ratio", "lower"),
	lm("obs.overhead_pct", "%", "lower"),
	lm("serve.search_straggler.p50_ms", "ms", "lower"),
	lm("serve.hedge_win_ratio", "ratio", "higher"),
	lm("batch.aggregate.ns_per_op", "ns", "lower"),
	lm("batch.do_overlap4.reads_saved_ratio", "ratio", "higher"),
	// Ladder: cluster.
	lm("cluster.router_inproc.L.ns_per_op", "ns", "lower"),
	lm("cluster.router_inproc.S.ns_per_op", "ns", "lower"),
	lm("cluster.router_loopback.L.ns_per_op", "ns", "lower"),
	lm("cluster.router_loopback.S.ns_per_op", "ns", "lower"),
	lm("cluster.router_autopilot.S.ns_per_op", "ns", "lower"),
	lm("cluster.node.handler_ms.L", "ms", "lower"),
	lm("cluster.node.handler_ms.S", "ms", "lower"),
	lm("cluster.router.self_ms", "ms", "lower"),
	lm("cluster.wire.self_ms", "ms", "lower"),
	lm("cluster.node.self_ms", "ms", "lower"),
	lm("exec.read_ms", "ms", "lower"),
	// Ladder: rung minus the rung below, on L and on S.
	lm("tax.serve.L", "ns", "lower"),
	lm("tax.serve.S", "ns", "lower"),
	lm("tax.resilience.L", "ns", "lower"),
	lm("tax.resilience.S", "ns", "lower"),
	lm("tax.cluster.L", "ns", "lower"),
	lm("tax.cluster.S", "ns", "lower"),
	lm("tax.wire.L", "ns", "lower"),
	lm("tax.wire.S", "ns", "lower"),
	lm("tax.autopilot.S", "ns", "lower"),
}

func spec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
