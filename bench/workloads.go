package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"decluster"
	"decluster/internal/cost"
	"decluster/internal/experiments"
	"decluster/internal/serve"
)

// Query-pool sizes: how many seeded queries a workload cycles through.
// Every pool entry has its expected answer computed from the oracle, and
// the first verifySet entries form the fixed verification set.
const (
	largePool = 64
	smallPool = 1024
	aggPool   = 1024
	verifySet = 16
)

// sizing holds the two input sizes that make a round long: the tests
// run the same workloads on smaller ones.
type sizing struct {
	ingestRecords int // records streamed per ingest round
	sweepSamples  int // query placements per sweep cell
}

var fullSize = sizing{ingestRecords: 200000, sweepSamples: 2000}

var workloads = workloadsAt(fullSize)

func workloadsAt(sz sizing) []*workload {
	return []*workload{
		{name: "node-large", clients: 2, warmup: 20, build: buildNodeLarge},
		{name: "cluster-large", clients: 2, warmup: 4, build: clusterSearchBuilder(largeSide, largePool, clusterOptions{})},
		{name: "cluster-small", clients: 2, warmup: 100, build: clusterSearchBuilder(smallSide, smallPool, clusterOptions{})},
		{name: "cluster-agg", clients: 2, warmup: 200, build: buildClusterAgg},
		{name: "cluster-straggler", clients: 2, warmup: 50, build: clusterSearchBuilder(smallSide, smallPool,
			clusterOptions{hedgeAfter: 3 * time.Millisecond, slowUnit: 5 * time.Millisecond})},
		{name: "sweep", clients: 1, rounds: true, warmup: 1, build: sz.buildSweep},
		{name: "ingest", clients: 1, rounds: true, build: sz.buildIngest},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- node-large ------------------------------------------------------

type nodeLarge struct {
	ds    *dataset
	sched *decluster.Scheduler
	hooks *tracer
	rects []decluster.Rect
	want  []answer
	model []int // predicted makespan per rect
}

func buildNodeLarge(seed int64, hooks *tracer) (instance, error) {
	ds, err := newDataset(seed)
	if err != nil {
		return nil, err
	}
	f, err := loadFile(ds.method, ds.recs)
	if err != nil {
		return nil, err
	}
	opts, err := nodeLargeOptions(ds.method)
	if err != nil {
		return nil, err
	}
	if hooks != nil {
		opts = append(opts, serve.WithReadWrapper(hooks.wrapReader))
	}
	s, err := decluster.Serve(f, opts...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &nodeLarge{ds: ds, sched: s, hooks: hooks, rects: ds.placements(rng, largeSide, largePool)}, nil
}

func (n *nodeLarge) prepare() error {
	if n.want != nil {
		return nil
	}
	if err := n.ds.buildOracle(); err != nil {
		return err
	}
	n.model = make([]int, len(n.rects))
	for i, r := range n.rects {
		n.model[i] = n.ds.predicted(r)
	}
	var err error
	n.want, err = n.ds.expectAll(n.rects)
	return err
}

func (n *nodeLarge) verify(ctx context.Context) error {
	if err := n.prepare(); err != nil {
		return err
	}
	for i := 0; i < verifySet; i++ {
		res, err := n.sched.Search(ctx, n.rects[i])
		if err != nil {
			return err
		}
		if got := checksum(res.Records); got != n.want[i] {
			return fmt.Errorf("rect %v: got %d records (sum %x), oracle has %d (sum %x)",
				n.rects[i], got.count, got.sum, n.want[i].count, n.want[i].sum)
		}
		// Healthy path: the makespan the executor delivered is the one
		// the cost model predicts.
		if got, want := maxInt(res.BucketsPerDisk), n.model[i]; got != want {
			return fmt.Errorf("rect %v: observed makespan %d, cost model predicts %d", n.rects[i], got, want)
		}
		res.Release()
	}
	return nil
}

func (n *nodeLarge) op(ctx context.Context, _, i int) (time.Duration, bool) {
	i %= len(n.rects)
	ctx, ot := n.hooks.begin(ctx, kindServe)
	start := time.Now()
	res, err := n.sched.Search(ctx, n.rects[i])
	lat := time.Since(start)
	if err != nil {
		ot.finish(lat, nil)
		return lat, false
	}
	ok := n.want == nil || checksum(res.Records) == n.want[i]
	if ot != nil {
		ot.finish(lat, &opFacts{
			makespan: maxInt(res.BucketsPerDisk), model: n.model[i],
			optimum: cost.OptimalRT(n.rects[i].Volume(), disks),
		})
	}
	res.Release()
	return lat, ok
}

func (n *nodeLarge) close() { _, _ = n.sched.Close() }

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// --- cluster-large, cluster-small, cluster-straggler -----------------

type clusterSearch struct {
	ds    *dataset
	fx    *clusterFx
	hooks *tracer
	rects []decluster.Rect
	want  []answer
	model []int // predicted makespan per rect: the busiest disk of the busiest node
}

func clusterSearchBuilder(side, pool int, opt clusterOptions) func(int64, *tracer) (instance, error) {
	return func(seed int64, hooks *tracer) (instance, error) {
		ds, err := newDataset(seed)
		if err != nil {
			return nil, err
		}
		opt := opt
		opt.hooks = hooks
		fx, err := newCluster(ds, opt)
		if err != nil {
			return nil, err
		}
		if opt.slowUnit > 0 {
			// Node 2 answers every request (5-1) x 5 ms late.
			if err := fx.faults.SetNodeSlow(2, 5); err != nil {
				fx.close()
				return nil, err
			}
		}
		rng := rand.New(rand.NewSource(seed))
		return &clusterSearch{ds: ds, fx: fx, hooks: hooks, rects: ds.placements(rng, side, pool)}, nil
	}
}

func (c *clusterSearch) prepare() error {
	if c.want != nil {
		return nil
	}
	if err := c.ds.buildOracle(); err != nil {
		return err
	}
	c.model = make([]int, len(c.rects))
	for i, r := range c.rects {
		subs, err := c.fx.sm.Decompose(r)
		if err != nil {
			return err
		}
		for _, sq := range subs {
			if m := c.ds.predicted(sq.Rect); m > c.model[i] {
				c.model[i] = m
			}
		}
	}
	var err error
	c.want, err = c.ds.expectAll(c.rects)
	return err
}

func (c *clusterSearch) verify(ctx context.Context) error {
	if err := c.prepare(); err != nil {
		return err
	}
	for i := 0; i < verifySet; i++ {
		res, err := c.fx.router.Search(ctx, c.rects[i])
		if !searchOK(res, err, c.want[i]) {
			return fmt.Errorf("rect %v: router answer differs from the single-file oracle (err %v)", c.rects[i], err)
		}
	}
	return nil
}

func (c *clusterSearch) op(ctx context.Context, _, i int) (time.Duration, bool) {
	i %= len(c.rects)
	ctx, ot := c.hooks.begin(ctx, kindRouter)
	start := time.Now()
	res, err := c.fx.router.Search(ctx, c.rects[i])
	lat := time.Since(start)
	if ot != nil {
		// makespan -1: counted from the op's disk.read spans.
		facts := &opFacts{makespan: -1, model: c.model[i], optimum: cost.OptimalRT(c.rects[i].Volume(), disks*clusterNodes)}
		if res != nil {
			facts.hedges, facts.hedgeWins, facts.retries = res.Hedges, res.HedgeWins, res.Retries
		}
		ot.finish(lat, facts)
	}
	if c.want == nil {
		return lat, err == nil
	}
	return lat, searchOK(res, err, c.want[i])
}

func (c *clusterSearch) close() { c.fx.close() }

// --- cluster-agg -----------------------------------------------------

type clusterAgg struct {
	ds      *dataset
	fx      *clusterFx
	hooks   *tracer
	queries []decluster.AggregateQuery
	want    []decluster.AggregateResult
}

func buildClusterAgg(seed int64, hooks *tracer) (instance, error) {
	ds, err := newDataset(seed)
	if err != nil {
		return nil, err
	}
	fx, err := newCluster(ds, clusterOptions{hooks: hooks})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	ops := []decluster.AggregateOp{decluster.AggCount, decluster.AggSum, decluster.AggMin, decluster.AggMax}
	qs := make([]decluster.AggregateQuery, aggPool)
	for i := range qs {
		side := 4 + rng.Intn(largeSide-4+1)
		qs[i] = decluster.AggregateQuery{
			Rect: ds.placements(rng, side, 1)[0],
			Op:   ops[rng.Intn(len(ops))],
			Attr: rng.Intn(2),
		}
	}
	return &clusterAgg{ds: ds, fx: fx, hooks: hooks, queries: qs}, nil
}

func (c *clusterAgg) prepare() error {
	if c.want != nil {
		return nil
	}
	if err := c.ds.buildOracle(); err != nil {
		return err
	}
	want := make([]decluster.AggregateResult, len(c.queries))
	for i, q := range c.queries {
		var err error
		if want[i], err = c.ds.aggExpect(q); err != nil {
			return err
		}
	}
	c.want = want
	return nil
}

func (c *clusterAgg) verify(ctx context.Context) error {
	if err := c.prepare(); err != nil {
		return err
	}
	for i := 0; i < verifySet; i++ {
		res, err := c.fx.router.Aggregate(ctx, c.queries[i])
		if err != nil || !aggMatches(res.AggregateResult, c.want[i]) {
			return fmt.Errorf("%v over %v: router answer differs from brute force (err %v)", c.queries[i].Op, c.queries[i].Rect, err)
		}
	}
	return nil
}

func (c *clusterAgg) op(ctx context.Context, _, i int) (time.Duration, bool) {
	i %= len(c.queries)
	ctx, ot := c.hooks.begin(ctx, kindRouter)
	start := time.Now()
	res, err := c.fx.router.Aggregate(ctx, c.queries[i])
	lat := time.Since(start)
	if ot != nil {
		facts := &opFacts{}
		if res != nil {
			facts.retries = res.Retries
		}
		ot.finish(lat, facts)
	}
	if err != nil {
		return lat, false
	}
	return lat, c.want == nil || aggMatches(res.AggregateResult, c.want[i])
}

func (c *clusterAgg) close() { c.fx.close() }

// --- sweep -----------------------------------------------------------

// sweepFamilies are the paper's evaluation sweeps, in the order a round
// runs them.
var sweepFamilies = []struct {
	name string
	run  func(experiments.Options) (*experiments.Experiment, error)
}{
	{"QuerySize", func(o experiments.Options) (*experiments.Experiment, error) {
		return experiments.QuerySize(experiments.SizeConfig{}, o)
	}},
	{"QueryShape", func(o experiments.Options) (*experiments.Experiment, error) {
		return experiments.QueryShape(experiments.ShapeConfig{}, o)
	}},
	{"Attributes", func(o experiments.Options) (*experiments.Experiment, error) {
		return experiments.Attributes(experiments.AttrsConfig{}, o)
	}},
	{"DisksSmall", func(o experiments.Options) (*experiments.Experiment, error) {
		return experiments.DisksSmall(experiments.DisksConfig{}, o)
	}},
	{"DisksLarge", func(o experiments.Options) (*experiments.Experiment, error) {
		return experiments.DisksLarge(experiments.DisksConfig{}, o)
	}},
	{"DatabaseSize", func(o experiments.Options) (*experiments.Experiment, error) {
		return experiments.DatabaseSize(experiments.DBSizeConfig{}, o)
	}},
	{"PartialMatch", func(o experiments.Options) (*experiments.Experiment, error) {
		return experiments.PartialMatch(experiments.PMConfig{}, o)
	}},
}

type sweep struct {
	opt    experiments.Options
	hooks  *tracer
	digest [sha256.Size]byte // of the walk-kernel round; zero until verify
}

func (sz sizing) buildSweep(seed int64, hooks *tracer) (instance, error) {
	return &sweep{
		opt:   experiments.Options{Seed: seed, SampleLimit: sz.sweepSamples, Parallel: 2, Kernel: cost.KernelAuto},
		hooks: hooks,
	}, nil
}

// round runs the seven sweeps and returns a digest of every table cell
// plus the mean RT/optimum over the evaluated cells.
func (s *sweep) round(opt experiments.Options, ot *opTrace) ([sha256.Size]byte, float64, error) {
	h := sha256.New()
	var ratioSum float64
	var cells int
	for _, fam := range sweepFamilies {
		sp := ot.start(kindKernel, fam.name)
		e, err := fam.run(opt)
		ot.end(sp)
		if err != nil {
			return [sha256.Size]byte{}, 0, fmt.Errorf("%s: %w", fam.name, err)
		}
		for _, row := range e.Rows {
			fmt.Fprintf(h, "%s|%s", fam.name, row.Label)
			for _, r := range row.Results {
				var buf [40]byte
				binary.LittleEndian.PutUint64(buf[0:], uint64(r.Queries))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.MeanRT))
				binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(r.MeanOpt))
				binary.LittleEndian.PutUint64(buf[24:], uint64(r.WorstRT))
				binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(r.FracOptimal))
				h.Write(buf[:])
				if r.Queries > 0 && !math.IsInf(r.Ratio, 0) && !math.IsNaN(r.Ratio) {
					ratioSum += r.Ratio
					cells++
				}
			}
		}
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d, ratioSum / float64(cells), nil
}

func (s *sweep) verify(context.Context) error {
	walk := s.opt
	walk.Kernel = cost.KernelWalk
	d, _, err := s.round(walk, nil)
	if err != nil {
		return err
	}
	s.digest = d
	got, _, err := s.round(s.opt, nil)
	if err != nil {
		return err
	}
	if got != d {
		return fmt.Errorf("tables under the auto kernel differ from the walk-kernel round")
	}
	return nil
}

func (s *sweep) op(ctx context.Context, _, _ int) (time.Duration, bool) {
	_, ot := s.hooks.begin(ctx, kindRound)
	start := time.Now()
	d, ratio, err := s.round(s.opt, ot)
	lat := time.Since(start)
	if ot != nil {
		ot.finish(lat, &opFacts{ratio: ratio})
	}
	return lat, err == nil && (s.digest == [sha256.Size]byte{} || d == s.digest)
}

func (s *sweep) close() {}

// --- ingest ----------------------------------------------------------

const (
	ingestCapacity = 32
	ingestEvery    = 10
)

type ingest struct {
	hooks *tracer
	recs  []decluster.Record
	// probes are the seeded query rects as fractions of the directory's
	// current shape: low corner and extent on each axis.
	probes [][4]float64
	// rtSum is the sum of every response time of a full round, fixed by
	// the first one; later rounds must reproduce it.
	rtSum int
}

func (sz sizing) buildIngest(seed int64, hooks *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	probes := make([][4]float64, sz.ingestRecords/ingestEvery)
	for i := range probes {
		probes[i] = [4]float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	g := &ingest{
		hooks:  hooks,
		recs:   decluster.UniformRecords{K: 2, Seed: seed}.Generate(sz.ingestRecords),
		probes: probes,
	}
	// Warm-up: a tenth of the stream faults in the code and grows the
	// heap; a whole round would double the run for nothing.
	warm := len(g.recs) / 10 / ingestEvery * ingestEvery
	f, me, _, err := g.round(warm, nil)
	if err == nil {
		err = g.check(f, me, warm)
	}
	return g, err
}

// ingestOutcome is what one round leaves behind for checking.
type ingestOutcome struct {
	rtSum, optSum     int
	splits, doublings int
}

// round streams n records into a fresh dynamic grid file with a
// delta-maintained prefix kernel attached, evaluating one seeded rect
// every ingestEvery-th insert. The structural checks that follow are
// the caller's: they are verification, not the workload.
func (g *ingest) round(n int, ot *opTrace) (*decluster.DynamicGridFile, *decluster.MaintainedEvaluator, ingestOutcome, error) {
	var out ingestOutcome
	f, err := decluster.NewDynamicGridFile(decluster.DynamicConfig{K: 2, Disks: disks, Capacity: ingestCapacity})
	if err != nil {
		return nil, nil, out, err
	}
	me, err := decluster.NewDynamicEvaluator(f, "ingest", decluster.KernelPrefix, 0)
	if err != nil {
		return nil, nil, out, err
	}
	lo, hi := decluster.Coord{0, 0}, decluster.Coord{0, 0}
	for base := 0; base < n; base += ingestEvery {
		sp := ot.start(kindWrite, "ingest.insert")
		for _, rec := range g.recs[base : base+ingestEvery] {
			if err := f.Insert(rec); err != nil {
				return nil, nil, out, err
			}
		}
		ot.end(sp)
		sp = ot.start(kindKernel, "ingest.eval")
		p := g.probes[base/ingestEvery]
		dims := f.Dims()
		for a := 0; a < 2; a++ {
			lo[a] = int(p[a] * float64(dims[a]))
			hi[a] = lo[a] + int(p[2+a]*float64(dims[a]-lo[a]))
		}
		r := decluster.Rect{Lo: lo, Hi: hi}
		out.rtSum += me.ResponseTime(r)
		out.optSum += cost.OptimalRT(r.Volume(), disks)
		ot.end(sp)
	}
	out.splits, out.doublings = f.Splits(), f.DirectoryDoublings()
	return f, me, out, nil
}

// check is the end-of-round verification: the file's own invariants,
// and the maintained tables against a kernel built from scratch.
func (g *ingest) check(f *decluster.DynamicGridFile, me *decluster.MaintainedEvaluator, n int) error {
	if f.Len() != n {
		return fmt.Errorf("file holds %d records, inserted %d", f.Len(), n)
	}
	if err := f.CheckInvariants(); err != nil {
		return err
	}
	fresh, err := decluster.NewPrefixEvaluator(me.Method())
	if err != nil {
		return err
	}
	if p := me.Prefix(); p == nil || !p.TablesEqual(fresh) {
		return fmt.Errorf("maintained prefix tables differ from a from-scratch rebuild")
	}
	return nil
}

func (g *ingest) verify(context.Context) error {
	f, me, out, err := g.round(len(g.recs), nil)
	if err != nil {
		return err
	}
	g.rtSum = out.rtSum
	return g.check(f, me, len(g.recs))
}

func (g *ingest) op(ctx context.Context, _, _ int) (time.Duration, bool) {
	n := len(g.recs)
	_, ot := g.hooks.begin(ctx, kindRound)
	start := time.Now()
	f, me, out, err := g.round(n, ot)
	lat := time.Since(start)
	if ot != nil {
		ot.finish(lat, &opFacts{ratio: float64(out.rtSum) / float64(out.optSum), splits: out.splits, retiles: out.doublings})
	}
	if err != nil || g.check(f, me, n) != nil {
		return lat, false
	}
	return lat, g.rtSum == 0 || out.rtSum == g.rtSum
}

func (g *ingest) close() {}
