package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {95, 100}, {99, 100}, {1, 10}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// Two overlapping legs, two overlapping handlers inside them, three
// reads inside those: every instant goes to the deepest open layer and
// the layers add up to the root.
func TestSelfTimesChargeDeepestLayer(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Kind: kindRouter, Start: 0, End: 100},
		{ID: 1, Parent: 0, Kind: kindLeg, Start: 10, End: 50},
		{ID: 2, Parent: 0, Kind: kindLeg, Start: 30, End: 80},
		{ID: 3, Parent: 1, Kind: kindNode, Start: 15, End: 45},
		{ID: 4, Parent: 2, Kind: kindNode, Start: 35, End: 70},
		{ID: 5, Parent: 3, Kind: kindRead, Disk: 1, Start: 20, End: 25},
		{ID: 6, Parent: 3, Kind: kindRead, Disk: 1, Start: 22, End: 30},
		{ID: 7, Parent: 4, Kind: kindRead, Disk: 2, Start: 40, End: 60},
	}
	self := selfTimes(spans)
	want := map[spanKind]int64{
		kindRouter: 100 - 70, // root minus the union of the legs [10,80]
		kindLeg:    70 - 55,  // legs minus the union of the handlers [15,70]
		kindNode:   55 - 30,  // handlers minus the union of the reads
		kindRead:   30,       // [20,30] and [40,60]
	}
	var sum int64
	for k, got := range self {
		sum += got
		if got != want[spanKind(k)] {
			t.Errorf("self time of %s = %d, want %d", kindNames[k], got, want[spanKind(k)])
		}
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, root is 100", sum)
	}
	if reads, makespan := readStats(spans); reads != 3 || makespan != 2 {
		t.Errorf("readStats = %d reads, makespan %d; want 3 and 2", reads, makespan)
	}
}

// A handler still open when the op ends (a cancelled hedge loser) and a
// span reaching past the root are both cut at the root's end.
func TestSelfTimesClipToRoot(t *testing.T) {
	spans := []span{
		{Kind: kindRouter, Start: 100, End: 200},
		{Kind: kindLeg, Start: 90, End: 150},
		{Kind: kindNode, Start: 160, End: 0},
		{Kind: kindRead, Start: 190, End: 260},
	}
	self := selfTimes(spans)
	want := [numKinds]int64{kindRouter: 10, kindLeg: 50, kindNode: 30, kindRead: 10}
	if self != want {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// The end-to-end rate is the median paired ratio over every window, a
// slow reference included: the pairing is the noise guard.
func TestOpsPerKrefIsMedianOfEveryWindow(t *testing.T) {
	ws := []window{
		{OpsPerS: 100, RefMs: 3.0, OpsPerKref: 150},
		{OpsPerS: 90, RefMs: 3.8, OpsPerKref: 171}, // reference 19 % slower than the median one
		{OpsPerS: 120, RefMs: 3.1, OpsPerKref: 186},
		{OpsPerS: 110, RefMs: 3.3, OpsPerKref: 181.5},
	}
	if got, want := opsPerKref(ws), (171+181.5)/2; got != want {
		t.Errorf("ops per kref %v, want the median %v", got, want)
	}
	if got := opsPerS(ws); got != 105 {
		t.Errorf("median window %v ops/s, want 105", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := boundedMetric{Name: "setup_s", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "ops_per_kref", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	wild := []float64{60, 100, 140, 80, 120, 100}
	for _, tc := range []struct {
		name string
		m    boundedMetric
		a, b reportMetric
		want verdict
	}{
		{"slower latency", lower, reportMetric{Value: 100, Samples: steady}, reportMetric{Value: 115, Samples: steady}, regression},
		{"faster latency", lower, reportMetric{Value: 100, Samples: steady}, reportMetric{Value: 85, Samples: steady}, improved},
		{"within bound", lower, reportMetric{Value: 100, Samples: steady}, reportMetric{Value: 105, Samples: steady}, same},
		{"less throughput", higher, reportMetric{Value: 100, Samples: steady}, reportMetric{Value: 85, Samples: steady}, regression},
		{"more throughput", higher, reportMetric{Value: 100, Samples: steady}, reportMetric{Value: 120, Samples: steady}, improved},
		{"spread wider than the bound", lower, reportMetric{Value: 100, Samples: steady}, reportMetric{Value: 130, Samples: wild}, unresolved},
	} {
		if _, _, got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Window length, window count and set-up sample count follow from seed,
// seconds and rounds, so reports that differ in one are not compared.
func TestCompareRefusesMismatchedReports(t *testing.T) {
	a := &report{Seed: 1, Seconds: 10, Rounds: reportRounds}
	for _, b := range []*report{
		{Seed: 2, Seconds: 10, Rounds: reportRounds},
		{Seed: 1, Seconds: 5, Rounds: reportRounds},
		{Seed: 1, Seconds: 10, Rounds: reportRounds + 1},
	} {
		if got := compareReports(a, b); got != 2 {
			t.Errorf("compare of seed %d/%g s/%d rounds against seed 1/10 s/%d rounds returned %d, want 2", b.Seed, b.Seconds, b.Rounds, reportRounds, got)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is the program's own table, and the table obeys the
// contract's limits.
func TestBenchmarkJSONAgreesWithProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := spec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `declusterbench spec`; regenerate it")
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		check("workload", w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(workloads) != len(workloadSpecs) {
		t.Errorf("%d workloads implemented, %d declared", len(workloads), len(workloadSpecs))
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check("per-layer metric", m.Name)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// smokeSize keeps a round short enough for the smoke tests.
var smokeSize = sizing{ingestRecords: 4000, sweepSamples: 12}

// Every workload builds, passes its verification pass, answers every
// timed op correctly, reports every end-to-end metric as a positive
// number and stops what it started.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadsAt(smokeSize) {
		res, err := measure(ctx, w, 7, 200*time.Millisecond, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		line := endToEndLine(w, res)
		if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d, leaked %d", w.name, line.Correct, line.Attempted, line.Failed, res.Leaked)
		}
		for _, m := range endToEnd {
			if v := line.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, m.Name, v)
			}
		}
	}
}

// A traced pass measures exactly the declared per-layer metrics (it
// fails itself otherwise), attributes the root span to layers that add
// up to it, and keeps the workloads apart where they should differ.
func TestSmokeTracedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("the ladder takes a few seconds")
	}
	ctx := context.Background()
	dir := t.TempDir()
	ws := workloadsAt(smokeSize)
	lines := map[string]resultLine{}
	for _, name := range []string{"cluster-small", "cluster-agg", "ingest"} {
		var w *workload
		for _, x := range ws {
			if x.name == name {
				w = x
			}
		}
		line, err := tracedPass(ctx, w, 7, 400*time.Millisecond, dir+"/"+name+".json", nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !line.Correct || len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: correct %v, %d metrics for %d declared", name, line.Correct, len(line.Metrics), len(perLayer))
		}
		if e := line.Metrics["trace.sum_error_pct"].Value; e > 1 {
			t.Errorf("%s: per-layer self times miss the root by %.2f %%", name, e)
		}
		lines[name] = line
	}
	small, agg := lines["cluster-small"].Metrics, lines["cluster-agg"].Metrics
	if small["exec.reads_per_op"].Value < 36 || agg["exec.reads_per_op"].Value != 0 {
		t.Errorf("reads per op: cluster-small %v (want >= 36), cluster-agg %v (want 0)",
			small["exec.reads_per_op"].Value, agg["exec.reads_per_op"].Value)
	}
	if small["quality.model_mismatch"].Value != 0 {
		t.Errorf("cluster-small: %v ops whose observed makespan differs from the cost model", small["quality.model_mismatch"].Value)
	}
	if lines["ingest"].Metrics["cluster.legs_per_op"].Value != 0 {
		t.Error("ingest sent requests over the wire")
	}
	var tf traceFile
	data, err := os.ReadFile(dir + "/cluster-small.json")
	if err == nil {
		err = json.Unmarshal(data, &tf)
	}
	if err != nil || tf.Ops == 0 || len(tf.Kept) == 0 || len(tf.Kept[0].Spans) < 3 {
		t.Errorf("trace file: err %v, %d ops, %d kept", err, tf.Ops, len(tf.Kept))
	}
}
