package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// tracedPass is a --trace 1 run. Half of the measuring time drives the
// workload, alternating windows with the hooks installed but switched
// off (latency tail, process counters, and the reference for the tracing
// overhead) and windows with spans on; the other half runs the ladder,
// unless the caller already has its rungs (the ladder does not depend on
// the workload, so the all-workload report runs it once). The spans are
// written to path when the pass ends.
func tracedPass(ctx context.Context, w *workload, seed int64, d time.Duration, path string, rungs map[string]float64) (resultLine, error) {
	var line resultLine
	tr := newTracer()
	base := liveGoroutines()
	inst, _, err := setUp(ctx, w, seed, tr)
	if err != nil {
		return line, err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	if err := inst.verify(ctx); err != nil {
		return line, fmt.Errorf("%s: verification: %w", w.name, err)
	}

	// Hooks-off and hooks-on windows alternate, so a slow phase of the
	// machine lands on both sides of the overhead comparison.
	pairs, each := 3, d/12
	if w.rounds {
		pairs, each = 2, 0
	}
	next := firstIndices(w)
	runWindow(ctx, w, inst, each/2, next) // settle; discarded
	var quiet, traced []window
	for begin := time.Now(); len(quiet) < pairs || w.rounds && time.Since(begin) < d/2; {
		tr.on.Store(false)
		quiet = append(quiet, runWindow(ctx, w, inst, each, next))
		tr.on.Store(true)
		traced = append(traced, runWindow(ctx, w, inst, each, next))
	}
	tr.on.Store(false)
	inst.close()
	closed = true
	leaked := awaitGoroutines(base)
	agg, kept := tr.take()

	out := make(map[string]float64, len(perLayer))
	for _, win := range append(append([]window(nil), quiet...), traced...) {
		line.Attempted += win.Ops
		line.Failed += win.Failed
	}
	quietStats(quiet, out)
	traceStats(agg, out)
	if q := out["lat.p50_ms"]; q > 0 {
		out["trace.overhead_pct"] = 100 * (float64(percentile(latencies(traced), 50))/1e6/q - 1)
	}

	if rungs == nil {
		if err := ladder(ctx, seed, d/2, out); err != nil {
			return line, err
		}
	}
	for name, v := range rungs {
		out[name] = v
	}
	if err := writeTraceFile(path, w.name, seed, agg, kept, out); err != nil {
		return line, fmt.Errorf("trace file: %w", err)
	}
	if agg.ops == 0 {
		return line, fmt.Errorf("%s: the traced window recorded no op", w.name)
	}

	line.Correct = line.Failed == 0 && leaked == 0
	line.Metrics = make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		v, measured := out[m.Name]
		if !measured {
			return line, fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		line.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	for name := range out {
		if _, declared := line.Metrics[name]; !declared {
			return line, fmt.Errorf("measured metric %s is not declared in spec.go", name)
		}
	}
	return line, nil
}

// quietStats fills the metrics that come from the hooks-off windows.
func quietStats(ws []window, out map[string]float64) {
	var ops int
	var cpu, allocs, kb, pause float64
	var calib []float64
	for _, win := range ws {
		ops += win.Ops
		cpu += win.CPUMs
		allocs += float64(win.Allocs)
		kb += win.AllocKB
		pause += win.GCPauseMs
		calib = append(calib, win.RefMs)
	}
	lat := latencies(ws)
	tail := supportedTail(len(lat))
	n := float64(ops)
	out["lat.p50_ms"] = float64(percentile(lat, 50)) / 1e6
	out["lat.tail_ms"] = float64(percentile(lat, tail)) / 1e6
	out["lat.tail_pct"] = tail
	out["lat.samples"] = float64(len(lat))
	out["proc.cpu_ms_per_op"] = cpu / n
	out["proc.allocs_per_op"] = allocs / n
	out["proc.alloc_kb_per_op"] = kb / n
	out["proc.gc_pause_ms"] = pause
	out["proc.peak_rss_mb"] = peakRSSMB()
	out["proc.calib_ms"] = median(calib)
	out["ops_per_s"] = opsPerS(ws)
}

// latencies pools the windows' per-op latencies, ascending.
func latencies(ws []window) []int64 {
	var lat []int64
	for _, win := range ws {
		lat = append(lat, win.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// traceStats fills the metrics that come from the traced window's spans
// and counts.
func traceStats(a traceAgg, out map[string]float64) {
	if a.ops == 0 {
		return
	}
	n := float64(a.ops)
	out["trace.root_ms"] = float64(a.rootNs) / n / 1e6
	for k, name := range shareMetric {
		if name != "" {
			out[name] = 100 * float64(a.selfNs[k]) / float64(a.rootNs)
		}
	}
	out["trace.sum_error_pct"] = 100 * a.sumErr / n
	out["cluster.legs_per_op"] = float64(a.legs) / n
	out["cluster.wire.req_bytes_per_op"] = float64(a.reqBytes) / n
	out["cluster.wire.resp_bytes_per_op"] = float64(a.respBytes) / n
	out["cluster.router.hedges_per_op"] = float64(a.hedges) / n
	out["cluster.router.hedge_win_ratio"] = ratio(float64(a.hedgeWins), float64(a.hedges))
	out["cluster.router.retries_per_op"] = float64(a.retries) / n
	out["exec.reads_per_op"] = float64(a.reads) / n
	out["quality.rt_over_opt"] = ratio(a.ratioSum, float64(a.ratioN))
	out["quality.model_mismatch"] = float64(a.mismatch)
	out["dyngrid.splits_per_round"] = float64(a.splits) / n
	out["dyngrid.retiles_per_round"] = float64(a.retiles) / n
}
