package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"decluster"
	"decluster/internal/batch"
	"decluster/internal/cost"
	"decluster/internal/grid"
)

// The ladder is the ROADMAP's fixed sequence of rungs — prefix kernel →
// gridfile.Bucket → exec.RangeSearch → serve.Search → node handler →
// router scatter/gather → the same with autopilot attached — all on the
// common fixture and the two canonical rects, one client. Every traced
// run repeats it, whatever its workload, so a layer's cost is read off
// the same rung every time and a rung minus the rung below is that
// layer's tax.

// rung calls fn in batches for about d and returns the median batch's
// ns per call, and the heap allocations per call over the whole rung.
func rung(d time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // fault in code and pools
	start := time.Now()
	fn()
	per := time.Since(start)
	batch := 1
	if per < 200*time.Microsecond {
		batch = int(200*time.Microsecond/(per+1)) + 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var samples []float64
	calls := 0
	for begin := time.Now(); time.Since(begin) < d || len(samples) < 3; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
		calls += batch
	}
	runtime.ReadMemStats(&ms)
	return median(samples), float64(ms.Mallocs-mallocs) / float64(calls)
}

// ladder runs every rung within about budget and stores the per-layer
// metrics in out.
func ladder(ctx context.Context, seed int64, budget time.Duration, out map[string]float64) error {
	unit := budget / 48
	ds, err := newDataset(seed)
	if err != nil {
		return err
	}
	if err := ds.buildOracle(); err != nil {
		return err
	}
	L, S := ds.rectL(), ds.rectS()
	for _, step := range []func() error{
		func() error { return kernelRungs(ds, L, unit, out) },
		func() error { return serveRungs(ctx, ds, L, S, unit, out) },
		func() error { return stragglerRung(ctx, ds, S, 3*unit, out) },
		func() error { return batchRungs(ctx, ds, L, 2*unit, out) },
		func() error { return clusterRungs(ctx, ds, L, S, unit, out) },
	} {
		if err := step(); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	// A rung minus the rung below is the upper layer's tax.
	for _, tag := range []string{"L", "S"} {
		k := func(name string) float64 { return out[name+"."+tag+".ns_per_op"] }
		out["tax.serve."+tag] = k("serve.search_plain") - k("exec.rangesearch")
		out["tax.resilience."+tag] = k("serve.search") - k("serve.search_plain")
		out["tax.cluster."+tag] = k("cluster.router_inproc") - k("serve.search_plain")
		out["tax.wire."+tag] = k("cluster.router_loopback") - k("cluster.router_inproc")
	}
	out["tax.autopilot.S"] = out["cluster.router_autopilot.S.ns_per_op"] - out["cluster.router_loopback.S.ns_per_op"]
	return nil
}

// kernelRungs: the cost kernels, the allocator and the two stores.
func kernelRungs(ds *dataset, L decluster.Rect, unit time.Duration, out map[string]float64) error {
	walk := cost.NewEvaluator(ds.method)
	out["cost.prefix_rt.ns_per_op"], _ = rung(unit, func() { ds.model.ResponseTime(L) })
	out["cost.walk_rt.ns_per_op"], _ = rung(unit, func() { walk.ResponseTime(L) })

	// Move one mid-grid cell to another disk and back: four suffix-box
	// updates, tables unchanged afterwards.
	cell := grid.Coord{gridSide / 2, gridSide / 2}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ns, _ := rung(unit, func() {
		for _, step := range [][2]int{{0, -1}, {1, +1}, {1, -1}, {0, +1}} {
			keep(ds.model.ApplyDelta(cell, (ds.method.DiskOf(cell)+step[0])%disks, step[1]))
		}
	})
	out["cost.apply_delta.ns_per_op"] = ns / 4

	ns, _ = rung(2*unit, func() {
		f, err := decluster.NewDynamicGridFile(decluster.DynamicConfig{K: 2, Disks: disks, Capacity: ingestCapacity})
		if err == nil {
			err = f.InsertAll(ds.recs)
		}
		keep(err)
	})
	out["dyngrid.insert.ns_per_op"] = ns / numRecords
	ns, _ = rung(unit, func() {
		_, err := decluster.NewHCAM(ds.g, disks)
		keep(err)
	})
	out["alloc.hcam_build.ms"] = ns / 1e6
	ns, _ = rung(2*unit, func() {
		_, err := loadFile(ds.method, ds.recs)
		keep(err)
	})
	out["gridfile.insert_all.ms"] = ns / 1e6
	if firstErr != nil {
		return firstErr
	}

	var bucketsL []int
	grid.EachRect(L, func(c grid.Coord) bool {
		bucketsL = append(bucketsL, ds.g.Linearize(c))
		return true
	})
	scanned := 0
	out["gridfile.bucket_scan.ns_per_op"], _ = rung(unit, func() {
		for _, b := range bucketsL {
			scanned += len(ds.oracle.Bucket(b))
		}
	})
	wantL, err := ds.expect(L)
	if err != nil {
		return err
	}
	if scanned == 0 || scanned%wantL.count != 0 {
		return fmt.Errorf("bucket scan: scanned %d records, rect holds %d", scanned, wantL.count)
	}
	return nil
}

// searchRungs times do on L and on S, checking every answer's record
// count, and stores name.{L,S}.ns_per_op; allocs, when set, also stores
// allocs_per_op.
func searchRungs(ds *dataset, name string, L, S decluster.Rect, dur time.Duration, allocs bool, out map[string]float64,
	do func(decluster.Rect) (*decluster.ExecResult, error)) error {
	for _, rc := range []struct {
		tag  string
		rect decluster.Rect
	}{{"L", L}, {"S", S}} {
		want, err := ds.expect(rc.rect)
		if err != nil {
			return err
		}
		var opErr error
		ns, perOp := rung(dur, func() {
			res, err := do(rc.rect)
			if err != nil {
				opErr = err
				return
			}
			if len(res.Records) != want.count {
				opErr = fmt.Errorf("%d records, oracle has %d", len(res.Records), want.count)
			}
			res.Release()
		})
		if opErr != nil {
			return fmt.Errorf("%s.%s: %w", name, rc.tag, opErr)
		}
		out[name+"."+rc.tag+".ns_per_op"] = ns
		if allocs {
			out[name+"."+rc.tag+".allocs_per_op"] = perOp
		}
	}
	return nil
}

// serveRungs: the bare executor, the scheduler with default options,
// the scheduler with node-large's options, and the latter observed.
func serveRungs(ctx context.Context, ds *dataset, L, S decluster.Rect, unit time.Duration, out map[string]float64) error {
	ex, err := decluster.NewExecutor(ds.oracle)
	if err != nil {
		return err
	}
	if err := searchRungs(ds, "exec.rangesearch", L, S, 2*unit, true, out, func(r decluster.Rect) (*decluster.ExecResult, error) {
		return ex.RangeSearch(ctx, r)
	}); err != nil {
		return err
	}
	fullOpts, err := nodeLargeOptions(ds.method)
	if err != nil {
		return err
	}
	sink := decluster.NewSink()
	scheds := make([]*decluster.Scheduler, 3)
	for i, opts := range [][]decluster.ServeOption{nil, fullOpts, append(fullOpts[:len(fullOpts):len(fullOpts)], decluster.WithServeObserver(sink))} {
		if scheds[i], err = decluster.Serve(ds.oracle, opts...); err != nil {
			return err
		}
		defer scheds[i].Close()
	}
	plain, full, observed := scheds[0], scheds[1], scheds[2]
	if err := searchRungs(ds, "serve.search_plain", L, S, 2*unit, false, out, func(r decluster.Rect) (*decluster.ExecResult, error) {
		return plain.Search(ctx, r)
	}); err != nil {
		return err
	}
	if err := searchRungs(ds, "serve.search", L, S, 2*unit, false, out, func(r decluster.Rect) (*decluster.ExecResult, error) {
		return full.Search(ctx, r)
	}); err != nil {
		return err
	}

	// Observability price: the same options with a live sink, in
	// alternating slices so machine drift hits both sides.
	var obsErr error
	searchL := func(s *decluster.Scheduler) func() {
		return func() {
			res, err := s.Search(ctx, L)
			if err != nil {
				obsErr = err
				return
			}
			res.Release()
		}
	}
	var offNs, onNs float64
	for i := 0; i < 2; i++ {
		ns, _ := rung(unit, searchL(full))
		offNs += ns / 2
		ns, _ = rung(unit, searchL(observed))
		onNs += ns / 2
	}
	if obsErr != nil {
		return fmt.Errorf("serve.search observed: %w", obsErr)
	}
	st, reg := observed.Stats(), sink.Registry()
	out["obs.overhead_pct"] = 100 * (onNs - offNs) / offNs
	out["serve.hedges_per_op"] = ratio(float64(st.HedgesIssued), float64(st.Completed))
	out["exec.attempts_per_read"] = ratio(float64(reg.Counter("exec.read.attempts").Value()), float64(reg.Counter("exec.read.calls").Value()))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stragglerRung is the disk-level twin of cluster-straggler: every read
// takes a simulated service time and one disk takes five times as long.
func stragglerRung(ctx context.Context, ds *dataset, S decluster.Rect, d time.Duration, out map[string]float64) error {
	inj, err := decluster.NewFaultInjector(decluster.FaultConfig{Seed: 1, Stragglers: map[int]float64{ds.method.DiskOf(S.Lo): 5}})
	if err != nil {
		return err
	}
	opts, err := nodeLargeOptions(ds.method)
	if err != nil {
		return err
	}
	s, err := decluster.Serve(ds.oracle, append(opts, decluster.WithServeFaults(inj), decluster.WithSimulatedLatency(time.Millisecond))...)
	if err != nil {
		return err
	}
	defer s.Close()
	var lats []int64
	for begin := time.Now(); time.Since(begin) < d || len(lats) < 5; {
		t0 := time.Now()
		res, err := s.Search(ctx, S)
		if err != nil {
			return fmt.Errorf("serve.search_straggler: %w", err)
		}
		lats = append(lats, int64(time.Since(t0)))
		res.Release()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st := s.Stats()
	out["serve.search_straggler.p50_ms"] = float64(percentile(lats, 50)) / 1e6
	out["serve.hedge_win_ratio"] = ratio(float64(st.HedgesWon), float64(st.HedgesIssued))
	return nil
}

// batchRungs: the disk-free aggregate kernel, and the shared-read dedup
// of four identical queries in flight at once.
func batchRungs(ctx context.Context, ds *dataset, L decluster.Rect, d time.Duration, out map[string]float64) error {
	s, err := decluster.Serve(ds.oracle)
	if err != nil {
		return err
	}
	defer s.Close()
	eng, err := decluster.NewBatchEngine(ds.oracle, s, decluster.WithBatchMax(4))
	if err != nil {
		return err
	}
	defer eng.Close()
	var opErr error
	q := decluster.AggregateQuery{Rect: L, Op: decluster.AggSum, Attr: 0}
	want, err := ds.aggExpect(q)
	if err != nil {
		return err
	}
	out["batch.aggregate.ns_per_op"], _ = rung(d/2, func() {
		res, err := eng.Aggregate(ctx, q)
		if err == nil && !aggMatches(res, want) {
			err = fmt.Errorf("SUM over %v differs from brute force", L)
		}
		if err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("batch.aggregate: %w", opErr)
	}
	// Four identical queries in flight at once: the engine should read
	// each distinct bucket once for the group.
	before := eng.Stats()
	for begin, n := time.Now(), 0; time.Since(begin) < d/2 || n < 2; n++ {
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for c := range errs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				_, errs[c] = eng.Do(ctx, batch.Query{Rect: L})
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("batch.do_overlap4: %w", err)
			}
		}
	}
	after := eng.Stats()
	out["batch.do_overlap4.reads_saved_ratio"] = ratio(float64(after.Deduped-before.Deduped), float64(after.Demand-before.Demand))
	return nil
}

// clusterRungs: the same Router.Search over the in-process transport,
// over loopback, over loopback with a calm autopilot attached, and over
// loopback traced.
func clusterRungs(ctx context.Context, ds *dataset, L, S decluster.Rect, unit time.Duration, out map[string]float64) error {
	wants := map[string]answer{}
	for tag, r := range map[string]decluster.Rect{"L": L, "S": S} {
		var err error
		if wants[tag], err = ds.expect(r); err != nil {
			return err
		}
	}
	routerRung := func(name string, fx *clusterFx, tags string) error {
		for _, rc := range []struct {
			tag  string
			rect decluster.Rect
			dur  time.Duration
		}{{"L", L, 5 * unit}, {"S", S, 2 * unit}} {
			if !strings.Contains(tags, rc.tag) {
				continue
			}
			var opErr error
			ns, _ := rung(rc.dur, func() {
				res, err := fx.router.Search(ctx, rc.rect)
				if !searchOK(res, err, wants[rc.tag]) {
					opErr = fmt.Errorf("answer differs from the oracle (err %v)", err)
				}
			})
			if opErr != nil {
				return fmt.Errorf("%s.%s: %w", name, rc.tag, opErr)
			}
			out[name+"."+rc.tag+".ns_per_op"] = ns
		}
		return nil
	}

	inproc, err := newCluster(ds, clusterOptions{inproc: true})
	if err != nil {
		return err
	}
	err = routerRung("cluster.router_inproc", inproc, "LS")
	inproc.close()
	if err != nil {
		return err
	}

	loop, err := newCluster(ds, clusterOptions{})
	if err != nil {
		return err
	}
	defer loop.close()
	if err := routerRung("cluster.router_loopback", loop, "LS"); err != nil {
		return err
	}
	ap, err := startAutopilot(loop)
	if err != nil {
		return err
	}
	err = routerRung("cluster.router_autopilot", loop, "S")
	// A short rung can end inside the first tick period.
	for wait := time.Now(); ap.Stats().Ticks == 0 && time.Since(wait) < time.Second; {
		time.Sleep(5 * time.Millisecond)
	}
	ap.Stop()
	if err != nil {
		return err
	}
	if st := ap.Stats(); st.Ticks == 0 || st.Joins != 0 || st.Leaves != 0 {
		return fmt.Errorf("autopilot was not calmly observing: %+v", st)
	}

	// The same loopback path, traced, on the fixed rects: where between
	// the executor and the router the time goes.
	tr := newTracer()
	traced, err := newCluster(ds, clusterOptions{hooks: tr})
	if err != nil {
		return err
	}
	defer traced.close()
	tr.on.Store(true)
	for _, rc := range []struct {
		tag  string
		rect decluster.Rect
		dur  time.Duration
	}{{"S", S, unit}, {"L", L, 5 * unit}} {
		for begin, n := time.Now(), 0; time.Since(begin) < rc.dur || n < 3; n++ {
			opCtx, ot := tr.begin(ctx, kindRouter)
			t0 := time.Now()
			res, err := traced.router.Search(opCtx, rc.rect)
			ot.finish(time.Since(t0), nil)
			if !searchOK(res, err, wants[rc.tag]) {
				return fmt.Errorf("traced router.%s: answer differs from the oracle (err %v)", rc.tag, err)
			}
		}
		agg, _ := tr.take()
		ops := float64(agg.ops)
		out["cluster.node.handler_ms."+rc.tag] = float64(agg.selfNs[kindNode]+agg.selfNs[kindRead]) / ops / 1e6
		if rc.tag == "L" {
			out["cluster.router.self_ms"] = float64(agg.selfNs[kindRouter]) / ops / 1e6
			out["cluster.wire.self_ms"] = float64(agg.selfNs[kindLeg]) / ops / 1e6
			out["cluster.node.self_ms"] = float64(agg.selfNs[kindNode]) / ops / 1e6
			out["exec.read_ms"] = float64(agg.selfNs[kindRead]) / ops / 1e6
		}
	}
	return nil
}
