// Benchmarks regenerating every table and figure of the reproduced
// paper's evaluation (one Benchmark per artifact, E1–E10 in DESIGN.md),
// plus ablation benchmarks for the design choices DESIGN.md calls out
// and micro-benchmarks of the allocation hot paths.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark regenerates its artifact per iteration and
// logs the rendered table (visible with -v); cmd/declustersim prints
// the same tables directly.
package decluster_test

import (
	"context"
	"testing"
	"time"

	"decluster"
	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/ecc"
	"decluster/internal/experiments"
	"decluster/internal/gf2"
	"decluster/internal/grid"
	"decluster/internal/hilbert"
	"decluster/internal/optimality"
	"decluster/internal/query"
)

// benchOpt keeps the per-iteration work bounded so the full suite runs
// in minutes while preserving the paper's regimes.
func benchOpt() experiments.Options {
	return experiments.Options{Seed: 1, SampleLimit: 300}
}

// BenchmarkTable1Conditions regenerates E1: the paper's Table 1 of
// partial-match optimality conditions, verified empirically.
func BenchmarkTable1Conditions(b *testing.B) {
	var reports []decluster.ConditionReport
	g, _ := decluster.NewGrid(16, 16)
	for i := 0; i < b.N; i++ {
		reports = decluster.Table1(g, 8)
	}
	for _, r := range reports {
		b.Log(r.String())
	}
}

// BenchmarkTheoremSearch regenerates E2: the strict-optimality
// existence table for M = 1..8, whose M > 5 band is the paper's
// theorem.
func BenchmarkTheoremSearch(b *testing.B) {
	var res *experiments.TheoremResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Theorem(experiments.TheoremConfig{MaxDisks: 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	if !res.HoldsPaperTheorem() {
		b.Fatal("theorem violated")
	}
	b.Log("\n" + res.Table().String())
}

// BenchmarkExpQuerySize regenerates E3: Experiment 1, the effect of
// query size (area 1 → 1024).
func BenchmarkExpQuerySize(b *testing.B) {
	var e *experiments.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = experiments.QuerySize(experiments.SizeConfig{}, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + e.Table(experiments.MeanRT).String())
	b.Log("\n" + e.Table(experiments.Ratio).String())
}

// BenchmarkExpQueryShape regenerates E4: Experiment 2, the effect of
// query shape (square → line at fixed area).
func BenchmarkExpQueryShape(b *testing.B) {
	var e *experiments.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = experiments.QueryShape(experiments.ShapeConfig{}, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + e.Table(experiments.Ratio).String())
}

// BenchmarkExpAttributes regenerates E5: Experiment 3, the effect of
// the number of attributes (3-attribute grid).
func BenchmarkExpAttributes(b *testing.B) {
	var e *experiments.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = experiments.Attributes(experiments.AttrsConfig{}, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + e.Table(experiments.Ratio).String())
}

// benchDisksCfg trims the disk sweep for bench iterations while keeping
// the crossover region.
func benchDisksCfg() experiments.DisksConfig {
	return experiments.DisksConfig{Disks: []int{4, 8, 16, 24, 32}}
}

// BenchmarkExpDisksSmall regenerates E6: Figure 5(a), response time vs
// disks for small queries.
func BenchmarkExpDisksSmall(b *testing.B) {
	var e *experiments.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = experiments.DisksSmall(benchDisksCfg(), benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + e.Table(experiments.MeanRT).String())
}

// BenchmarkExpDisksLarge regenerates E7: Figure 5(b), response time vs
// disks for large queries.
func BenchmarkExpDisksLarge(b *testing.B) {
	var e *experiments.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = experiments.DisksLarge(benchDisksCfg(), benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + e.Table(experiments.MeanRT).String())
}

// BenchmarkExpDatabaseSize regenerates E8: the database-size axis.
func BenchmarkExpDatabaseSize(b *testing.B) {
	var e *experiments.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = experiments.DatabaseSize(experiments.DBSizeConfig{Sides: []int{16, 32, 64, 128}}, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + e.Table(experiments.Ratio).String())
}

// BenchmarkExpPartialMatch regenerates E9: partial-match performance by
// unspecified pattern.
func BenchmarkExpPartialMatch(b *testing.B) {
	var e *experiments.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = experiments.PartialMatch(experiments.PMConfig{}, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + e.Table(experiments.Ratio).String())
}

// BenchmarkExpEndToEnd regenerates E10: wall-clock response times
// through the grid file and the 1993 disk model.
func BenchmarkExpEndToEnd(b *testing.B) {
	cfg := experiments.EndToEndConfig{GridSide: 32, Disks: 8, Records: 20000}
	opt := experiments.Options{Seed: 1, SampleLimit: 50}
	var res *experiments.EndToEndResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.EndToEnd(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Table().String())
}

// BenchmarkExpBatch regenerates E11: multi-user batch makespans.
func BenchmarkExpBatch(b *testing.B) {
	cfg := experiments.BatchConfig{GridSide: 16, Disks: 4, Records: 10000, BatchSizes: []int{1, 4, 16}}
	var res *experiments.BatchResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Batch(cfg, experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Table().String())
}

// BenchmarkExpSkew regenerates E12: response times across data
// populations.
func BenchmarkExpSkew(b *testing.B) {
	cfg := experiments.SkewConfig{GridSide: 16, Disks: 4, Records: 10000}
	var res *experiments.SkewResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Skew(cfg, experiments.Options{Seed: 1, SampleLimit: 30})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Table().String())
}

// BenchmarkExpDrift regenerates E13: the workload-drift study (penalty
// of a stale method and the reorganization bill of switching).
func BenchmarkExpDrift(b *testing.B) {
	var res *experiments.DriftResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Drift(experiments.DriftConfig{}, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Table().String())
}

// BenchmarkExpReplication regenerates E14: chained replication vs
// single-copy methods, healthy and degraded.
func BenchmarkExpReplication(b *testing.B) {
	cfg := experiments.ReplicationConfig{GridSide: 32, Disks: 8}
	opt := experiments.Options{Seed: 1, SampleLimit: 60}
	var res *experiments.ReplicationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Replication(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Table().String())
}

// BenchmarkExpLoad regenerates E15: the open-system load sweep (mean
// response vs arrival rate).
func BenchmarkExpLoad(b *testing.B) {
	cfg := experiments.LoadConfig{
		GridSide: 16, Disks: 4, Records: 10000,
		Rates: []float64{1, 10, 50}, Queries: 200,
	}
	opt := experiments.Options{Seed: 1, SampleLimit: 60}
	var res *experiments.LoadResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Load(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Table().String())
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationECCColumnOrder compares the shipped parity-check
// column order (unit vectors first) against the naive ascending cycle
// on the large-query workload that exposed the difference; the shipped
// order must not regress.
func BenchmarkAblationECCColumnOrder(b *testing.B) {
	g := grid.MustNew(64, 64)
	w, err := query.RandomRange(g, 16, 48, 300, 1)
	if err != nil {
		b.Fatal(err)
	}
	shipped, err := alloc.NewECC(g, 32)
	if err != nil {
		b.Fatal(err)
	}
	// Naive variant: columns cycle 1, 2, 3, … .
	n, r := shipped.Code().Length(), shipped.Code().ParityBits()
	h, _ := gf2.NewMatrix(r, n)
	nonzero := (1 << uint(r)) - 1
	for c := 0; c < n; c++ {
		h.SetColumn(c, gf2.Vec(c%nonzero+1))
	}
	naiveCode, err := ecc.NewFromParityCheck(h)
	if err != nil {
		b.Fatal(err)
	}
	naive, err := alloc.NewECCWithCode(g, 32, naiveCode)
	if err != nil {
		b.Fatal(err)
	}
	var rs, rn cost.Result
	for i := 0; i < b.N; i++ {
		rs = cost.Evaluate(shipped, w)
		rn = cost.Evaluate(naive, w)
	}
	b.Logf("shipped column order: ratio %.3f; naive ascending: ratio %.3f", rs.Ratio, rn.Ratio)
	if rs.Ratio > rn.Ratio {
		b.Fatalf("shipped ECC order regressed: %.3f > %.3f", rs.Ratio, rn.Ratio)
	}
}

// BenchmarkAblationGDMDiagonal compares plain DM against the GDM(1,2)
// diagonal on 2×2 squares over 5 disks — the configuration where
// GDM(1,2) is provably strictly optimal and DM is not.
func BenchmarkAblationGDMDiagonal(b *testing.B) {
	g := grid.MustNew(20, 20)
	dm, _ := alloc.NewDM(g, 5)
	gdm, _ := alloc.NewGDM(g, 5, []int{1, 2})
	qs, err := query.Placements(g, []int{2, 2}, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := query.Workload{Name: "2×2", Queries: qs}
	var rd, rg cost.Result
	for i := 0; i < b.N; i++ {
		rd = cost.Evaluate(dm, w)
		rg = cost.Evaluate(gdm, w)
	}
	b.Logf("DM ratio %.3f; GDM(1,2) ratio %.3f", rd.Ratio, rg.Ratio)
	if rg.Ratio != 1 {
		b.Fatalf("GDM(1,2) mod 5 not strictly optimal on 2×2 squares: %.3f", rg.Ratio)
	}
}

// BenchmarkAblationExFXvsFX compares ExFX against plain FX on a grid
// whose fields are narrower than the disk count — the regime ExFX
// exists for.
func BenchmarkAblationExFXvsFX(b *testing.B) {
	g := grid.MustNew(8, 8)
	fx, _ := alloc.NewFX(g, 16)
	exfx, _ := alloc.NewExFX(g, 16)
	qs, err := query.Placements(g, []int{4, 4}, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := query.Workload{Name: "4×4", Queries: qs}
	var rf, re cost.Result
	for i := 0; i < b.N; i++ {
		rf = cost.Evaluate(fx, w)
		re = cost.Evaluate(exfx, w)
	}
	b.Logf("FX ratio %.3f; ExFX ratio %.3f (narrow fields, M=16)", rf.Ratio, re.Ratio)
	if re.Ratio > rf.Ratio {
		b.Fatalf("ExFX regressed below plain FX: %.3f > %.3f", re.Ratio, rf.Ratio)
	}
}

// BenchmarkAblationCurves compares Hilbert (HCAM) against the Z-order
// and Gray-code curve allocations — the ablation behind HCAM's choice
// of curve. The trade-off is regime-dependent (Z-order is exactly
// aligned to dyadic blocks, Hilbert is continuous): the bench reports a
// mixed small-query band at prime M and pins the two facts the unit
// tests verify — Hilbert beats Gray here, and Hilbert beats Z-order on
// the non-dyadic 5×5 shape at power-of-two M.
func BenchmarkAblationCurves(b *testing.B) {
	g := grid.MustNew(32, 32)
	h7, _ := alloc.NewHCAM(g, 7)
	z7, _ := alloc.NewZCAM(g, 7)
	g7, _ := alloc.NewGCAM(g, 7)
	band, err := query.RandomRange(g, 1, 6, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	h8, _ := alloc.NewHCAM(g, 8)
	z8, _ := alloc.NewZCAM(g, 8)
	qs55, err := query.Placements(g, []int{5, 5}, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	w55 := query.Workload{Name: "5×5", Queries: qs55}
	var rh, rz, rg, rh55, rz55 cost.Result
	for i := 0; i < b.N; i++ {
		rh = cost.Evaluate(h7, band)
		rz = cost.Evaluate(z7, band)
		rg = cost.Evaluate(g7, band)
		rh55 = cost.Evaluate(h8, w55)
		rz55 = cost.Evaluate(z8, w55)
	}
	b.Logf("M=7 mixed band: HCAM %.3f, ZCAM %.3f, GCAM %.3f (mean RT)", rh.MeanRT, rz.MeanRT, rg.MeanRT)
	b.Logf("M=8 5×5 (non-dyadic): HCAM %.3f vs ZCAM %.3f", rh55.MeanRT, rz55.MeanRT)
	if rh.MeanRT > rg.MeanRT {
		b.Fatalf("HCAM fell below GCAM on the mixed band: %.3f > %.3f", rh.MeanRT, rg.MeanRT)
	}
	if rh55.MeanRT >= rz55.MeanRT {
		b.Fatalf("HCAM lost the non-dyadic 5×5 regime: %.3f ≥ %.3f", rh55.MeanRT, rz55.MeanRT)
	}
}

// BenchmarkSearchImpossibleM6 measures the theorem witness search.
func BenchmarkSearchImpossibleM6(b *testing.B) {
	g := grid.MustNew(6, 6)
	for i := 0; i < b.N; i++ {
		res := optimality.SearchStrictlyOptimal(g, 6, 0)
		if res.Outcome != optimality.Impossible {
			b.Fatal("unexpected outcome")
		}
	}
}

// --- Micro-benchmarks of the allocation hot paths --------------------

func benchDiskOf(b *testing.B, m alloc.Method) {
	g := m.Grid()
	c := grid.Coord{3, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c[0] = i & 63
		_ = m.DiskOf(c)
	}
	_ = g
}

func BenchmarkDiskOfDM(b *testing.B) {
	m, _ := alloc.NewDM(grid.MustNew(64, 64), 16)
	benchDiskOf(b, m)
}

func BenchmarkDiskOfFX(b *testing.B) {
	m, _ := alloc.NewFX(grid.MustNew(64, 64), 16)
	benchDiskOf(b, m)
}

func BenchmarkDiskOfExFX(b *testing.B) {
	m, _ := alloc.NewExFX(grid.MustNew(64, 64), 16)
	benchDiskOf(b, m)
}

func BenchmarkDiskOfECC(b *testing.B) {
	m, _ := alloc.NewECC(grid.MustNew(64, 64), 16)
	benchDiskOf(b, m)
}

func BenchmarkDiskOfHCAM(b *testing.B) {
	m, _ := alloc.NewHCAM(grid.MustNew(64, 64), 16)
	benchDiskOf(b, m)
}

func BenchmarkHilbertIndex(b *testing.B) {
	c := hilbert.MustNew(2, 6)
	coords := []int{13, 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coords[0] = i & 63
		if _, err := c.Index(coords); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHCAMConstruction(b *testing.B) {
	g := grid.MustNew(64, 64)
	for i := 0; i < b.N; i++ {
		if _, err := alloc.NewHCAM(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridFileInsert(b *testing.B) {
	g := grid.MustNew(64, 64)
	m, _ := alloc.NewHCAM(g, 16)
	recs := decluster.UniformRecords{K: 2, Seed: 1}.Generate(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := decluster.NewGridFile(decluster.GridFileConfig{Method: m})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.InsertAll(recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridFileRangeSearch(b *testing.B) {
	g := grid.MustNew(64, 64)
	m, _ := alloc.NewHCAM(g, 16)
	f, _ := decluster.NewGridFile(decluster.GridFileConfig{Method: m})
	if err := f.InsertAll(decluster.UniformRecords{K: 2, Seed: 1}.Generate(50000)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RangeSearch([]float64{0.2, 0.2}, []float64{0.7, 0.7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicGridInsert(b *testing.B) {
	recs := decluster.UniformRecords{K: 2, Seed: 1}.Generate(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := decluster.NewDynamicGridFile(decluster.DynamicConfig{K: 2, Disks: 8, Capacity: 32})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.InsertAll(recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelScan(b *testing.B) {
	g := grid.MustNew(64, 64)
	m, _ := alloc.NewHCAM(g, 16)
	f, _ := decluster.NewGridFile(decluster.GridFileConfig{Method: m})
	if err := f.InsertAll(decluster.UniformRecords{K: 2, Seed: 1}.Generate(50000)); err != nil {
		b.Fatal(err)
	}
	r := g.MustRect(decluster.Coord{8, 8}, decluster.Coord{55, 55})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decluster.ParallelRangeSearch(ctx, f, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateWorkload(b *testing.B) {
	g := grid.MustNew(64, 64)
	m, _ := alloc.NewHCAM(g, 16)
	qs, err := query.Placements(g, []int{8, 8}, 300, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := query.Workload{Name: "8×8", Queries: qs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cost.Evaluate(m, w)
	}
}

// BenchmarkEvaluateWorkloadFast measures the table-materializing fast
// path the experiment harness uses; compare against
// BenchmarkEvaluateWorkload for the speedup.
func BenchmarkEvaluateWorkloadFast(b *testing.B) {
	g := grid.MustNew(64, 64)
	m, _ := alloc.NewHCAM(g, 16)
	qs, err := query.Placements(g, []int{8, 8}, 300, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := query.Workload{Name: "8×8", Queries: qs}
	e := cost.NewEvaluator(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Evaluate(w)
	}
}

// BenchmarkClusterMigration measures one full online membership change —
// plan, prepare, throttle-free bucket copies over loopback HTTP, cutover
// on every member, router adoption — alternating join and leave so each
// iteration starts from the epoch the previous one left behind.
func BenchmarkClusterMigration(b *testing.B) {
	g := grid.MustNew(8, 8)
	sm, err := decluster.NewChainShardMap(g, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	method, err := decluster.NewFX(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	recs := decluster.UniformRecords{K: 2, Seed: 1}.Generate(2048)
	h, err := decluster.StartClusterHarness(decluster.ClusterHarnessConfig{
		Map:      sm,
		Method:   method,
		Records:  recs,
		Standbys: 1,
		Router:   decluster.RouterConfig{NodeDeadline: 5 * time.Second},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()

	var joined int // the member a join added, pending retirement
	joined = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var plan *decluster.MigrationPlan
		var err error
		if joined < 0 {
			plan, err = decluster.PlanClusterJoin(h.Router().Map())
		} else {
			plan, err = decluster.PlanClusterLeave(h.Router().Map(), joined)
		}
		if err != nil {
			b.Fatal(err)
		}
		st, err := decluster.MigrateCluster(context.Background(), decluster.ClusterMigrateConfig{
			Plan:      plan,
			Endpoints: h.URLs(),
			Router:    h.Router(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.Aborted || st.Buckets == 0 {
			b.Fatalf("iteration %d: stats %+v", i, st)
		}
		if joined < 0 {
			joined = plan.Member
		} else {
			joined = -1
		}
		b.ReportMetric(float64(st.Records), "records/op")
	}
}
