package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/batch"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
	"decluster/internal/replica"
	"decluster/internal/serve"
	"decluster/internal/table"
)

// BatchGoodputConfig parameterizes Experiment EB: the same overlapping
// multi-client workload driven through the scheduler three ways —
// every query individually, batched FIFO, and batched
// shared-work-first — under a straggler disk, transient read errors,
// and one failed disk covered by chained replication. The point is the
// dedup ledger: batching answers the same logical queries from a
// fraction of the physical reads, and goodput rises by roughly the
// overlap factor once admission bounds the read concurrency. A final
// drill answers aggregates from the prefix-table kernel and asserts it
// dispatched zero bucket reads.
type BatchGoodputConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 12).
	GridSide int
	// Disks is M (default 8).
	Disks int
	// Records populates the grid file (default 4096).
	Records int
	// Clients is the number of concurrent query issuers (default 12).
	Clients int
	// HotRects is the size of the shared query pool the clients draw
	// from; Clients/HotRects is the expected overlap per batch window
	// (default 3 → overlap 4 at the default client count).
	HotRects int
	// RectSide is the side length of each pooled square query
	// (default 4).
	RectSide int
	// Duration is the soak length per cell (default 600ms).
	Duration time.Duration
	// BaseLatency is the simulated healthy per-bucket read service
	// time (default 2ms; keep it above the platform timer floor).
	BaseLatency time.Duration
	// Window bounds the batching group in time (default 3ms).
	Window time.Duration
	// MaxInFlight is the admission bound on concurrent queries (default
	// 1). It sits deliberately far below Clients: batching pays off
	// exactly when concurrent physical reads are the scarce resource —
	// a group rides one admission slot no matter how many logical
	// queries it answers, while individual dispatch needs a slot per
	// query.
	MaxInFlight int
	// Aggregates is the number of aggregate queries in the zero-read
	// drill (default 2000).
	Aggregates int
	// Obs optionally receives every cell's serving and batch metrics.
	Obs *obs.Sink
}

func (c BatchGoodputConfig) withDefaults() BatchGoodputConfig {
	if c.GridSide == 0 {
		c.GridSide = 12
	}
	if c.Disks == 0 {
		c.Disks = 8
	}
	if c.Records == 0 {
		c.Records = 4096
	}
	if c.Clients == 0 {
		c.Clients = 12
	}
	if c.HotRects == 0 {
		c.HotRects = 3
	}
	if c.RectSide == 0 {
		c.RectSide = 4
	}
	if c.Duration == 0 {
		c.Duration = 600 * time.Millisecond
	}
	if c.BaseLatency == 0 {
		c.BaseLatency = 2 * time.Millisecond
	}
	if c.Window == 0 {
		c.Window = 3 * time.Millisecond
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 1
	}
	if c.Aggregates == 0 {
		c.Aggregates = 2000
	}
	return c
}

// BatchGoodputCell is one dispatch mode's soak outcome.
type BatchGoodputCell struct {
	Mode string // "individual", "batch fifo", "batch swf"

	Issued, Answered, Failed uint64
	GoodputQPS               float64
	P50, P99                 time.Duration

	// The dedup ledger, in bucket-read units. For the individual mode
	// Physical == Demand by definition (every query reads its own
	// buckets); for the batch modes Demand − Physical is the shared
	// work the plan collapsed.
	Physical, Demand, Deduped, Pruned uint64
}

// Saved is the fraction of demanded bucket reads never dispatched.
func (c BatchGoodputCell) Saved() float64 {
	if c.Demand == 0 {
		return 0
	}
	return float64(c.Deduped+c.Pruned) / float64(c.Demand)
}

// BatchGoodputResult is the regenerated Experiment EB table.
type BatchGoodputResult struct {
	Disks, Clients, HotRects int
	Duration, BaseLatency    time.Duration
	Window                   time.Duration
	MaxInFlight              int
	Cells                    []BatchGoodputCell

	// The aggregate drill: AggReads is the number of physical bucket
	// reads the kernel dispatched while answering AggQueries
	// aggregates — zero by construction, and BatchGoodput errors out
	// rather than report a table if it is not.
	AggQueries int
	AggPerSec  float64
	AggReads   uint64
}

// BatchGoodput runs Experiment EB. All three cells share one HCAM grid
// file and an identical chaos profile (straggler disk 0, disk 1 down
// behind chained replication, transient errors); only the dispatch
// path differs.
func BatchGoodput(cfg BatchGoodputConfig, opt Options) (*BatchGoodputResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Disks < 2 {
		return nil, fmt.Errorf("experiments: batch goodput needs ≥ 2 disks, got %d", cfg.Disks)
	}
	g, err := grid.New(cfg.GridSide, cfg.GridSide)
	if err != nil {
		return nil, err
	}
	m, err := alloc.NewHCAM(g, cfg.Disks)
	if err != nil {
		return nil, err
	}
	f, err := populated(m, 0, datagen.Uniform{K: 2, Seed: opt.seed()}.Generate(cfg.Records))
	if err != nil {
		return nil, err
	}

	// The shared hot pool: every client draws uniformly from these
	// rects, so any batch window holds ~Clients/HotRects copies of
	// each — the overlap the dedup plan collapses.
	rng := rand.New(rand.NewSource(opt.seed()))
	pool := make([]grid.Rect, cfg.HotRects)
	side := min(cfg.RectSide, cfg.GridSide)
	for i := range pool {
		x := rng.Intn(cfg.GridSide - side + 1)
		y := rng.Intn(cfg.GridSide - side + 1)
		pool[i] = g.MustRect(grid.Coord{x, y}, grid.Coord{x + side - 1, y + side - 1})
	}

	res := &BatchGoodputResult{
		Disks: cfg.Disks, Clients: cfg.Clients, HotRects: cfg.HotRects,
		Duration: cfg.Duration, BaseLatency: cfg.BaseLatency,
		Window: cfg.Window, MaxInFlight: cfg.MaxInFlight,
	}
	cells := []struct {
		mode    string
		batched bool
		policy  batch.Policy
	}{
		{"individual", false, batch.PolicyFIFO},
		{"batch fifo", true, batch.PolicyFIFO},
		{"batch swf", true, batch.PolicySharedWorkFirst},
	}
	for _, c := range cells {
		cell, err := runBatchGoodputCell(f, pool, c.batched, c.policy, cfg, opt.seed())
		if err != nil {
			return nil, err
		}
		cell.Mode = c.mode
		res.Cells = append(res.Cells, *cell)
	}

	if err := runAggregateDrill(f, pool, cfg, opt.seed(), res); err != nil {
		return nil, err
	}
	return res, nil
}

// newBatchGoodputScheduler builds one cell's scheduler over the shared
// file with the experiment's chaos profile: one read in twenty fails
// transiently, disk 0 straggles ×8 for the whole run and disk 1 is down
// behind chained replication.
func newBatchGoodputScheduler(f *gridfile.File, cfg BatchGoodputConfig, seed int64) (*serve.Scheduler, error) {
	inj, err := fault.New(fault.Config{
		Seed:          seed,
		TransientProb: 0.05,
		Stragglers:    map[int]float64{0: 8},
	})
	if err != nil {
		return nil, err
	}
	if err := inj.FlipDisks([]int{1}, nil); err != nil {
		return nil, err
	}
	chain, err := replica.NewChained(f.Method())
	if err != nil {
		return nil, err
	}
	opts := []serve.Option{
		serve.WithFaults(inj),
		serve.WithFailover(chain),
		serve.WithRetry(exec.RetryPolicy{MaxAttempts: 8, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}),
		serve.WithBaseLatency(cfg.BaseLatency),
		// The queue holds every client four times over: EB measures what
		// the read slots deliver, not what the queue turns away.
		serve.WithAdmission(serve.AdmissionConfig{
			MaxInFlight: cfg.MaxInFlight, MaxQueue: 4 * cfg.Clients, DropExpired: true,
		}),
		serve.WithDrainTimeout(10 * time.Second),
	}
	if cfg.Obs != nil {
		inj.AttachObserver(cfg.Obs)
		opts = append(opts, serve.WithObserver(cfg.Obs))
	}
	return serve.New(f, opts...)
}

// batchGoodputMaxBatch caps a batching group's size.
const batchGoodputMaxBatch = 16

// runBatchGoodputCell soaks one dispatch mode.
func runBatchGoodputCell(f *gridfile.File, pool []grid.Rect, batched bool, policy batch.Policy, cfg BatchGoodputConfig, seed int64) (*BatchGoodputCell, error) {
	sched, err := newBatchGoodputScheduler(f, cfg, seed)
	if err != nil {
		return nil, err
	}

	var eng *batch.Engine
	if batched {
		bopts := []batch.Option{
			batch.WithWindow(cfg.Window),
			batch.WithMaxBatch(batchGoodputMaxBatch),
			batch.WithPolicy(policy),
		}
		if cfg.Obs != nil {
			bopts = append(bopts, batch.WithObserver(cfg.Obs))
		}
		eng, err = batch.New(f, func(ctx context.Context, buckets []int, prio int) (*exec.Result, error) {
			return sched.DoBuckets(ctx, serve.BucketQuery{Buckets: buckets, Priority: prio})
		}, bopts...)
		if err != nil {
			sched.Close()
			return nil, err
		}
	}

	// Each logical query is bounded end to end at 500 × BaseLatency.
	var demand atomic.Uint64
	s := newSoak(500*cfg.BaseLatency, func(ctx context.Context, q grid.Rect) outcome {
		var err error
		if batched {
			_, err = eng.Do(ctx, batch.Query{Rect: q})
		} else {
			_, err = sched.Do(ctx, serve.Query{Rect: q})
		}
		if err == nil {
			demand.Add(uint64(q.Volume()))
		}
		return serveOutcome(err)
	})
	s.clients(cfg.Clients, seed*7919,
		func(rng *rand.Rand) grid.Rect { return pool[rng.Intn(len(pool))] },
		func(o outcome, _ time.Duration, _ *rand.Rand) time.Duration {
			if o == shed {
				return 4 * cfg.BaseLatency
			}
			return 0
		})
	s.at(cfg.Duration, s.halt)
	s.wait()

	cell := &BatchGoodputCell{}
	if batched {
		st, err := eng.Close()
		if err != nil {
			sched.Close()
			return nil, err
		}
		cell.Physical = st.Physical
		cell.Demand = st.Demand
		cell.Deduped = st.Deduped
		cell.Pruned = st.Pruned
	} else {
		// Unbatched, every answered query dispatched its own buckets.
		cell.Physical = demand.Load()
		cell.Demand = demand.Load()
	}
	if _, err := sched.Close(); err != nil {
		return nil, fmt.Errorf("experiments: batch goodput drain: %w", err)
	}

	cell.Issued = s.issued.Load()
	cell.Answered = s.total(answered)
	// Shed and unavailable queries are failures here: EB has one fail%
	// column.
	cell.Failed = s.total(shed, unavailable, failed)
	cell.GoodputQPS = float64(cell.Answered) / cfg.Duration.Seconds()
	cell.P50 = s.percentile(0, 0.50)
	cell.P99 = s.percentile(0, 0.99)
	return cell, nil
}

// runAggregateDrill answers cfg.Aggregates aggregate queries from a
// quiet engine and fails the whole experiment if the kernel touched a
// single bucket.
func runAggregateDrill(f *gridfile.File, pool []grid.Rect, cfg BatchGoodputConfig, seed int64, res *BatchGoodputResult) error {
	s, err := newBatchGoodputScheduler(f, cfg, seed)
	if err != nil {
		return err
	}
	defer s.Close()
	var reads atomic.Uint64
	eng, err := batch.New(f, func(ctx context.Context, buckets []int, prio int) (*exec.Result, error) {
		reads.Add(1)
		return s.DoBuckets(ctx, serve.BucketQuery{Buckets: buckets, Priority: prio})
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	ops := []batch.AggregateOp{batch.OpCount, batch.OpSum, batch.OpMin, batch.OpMax}
	rng := rand.New(rand.NewSource(seed + 1))
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < cfg.Aggregates; i++ {
		q := batch.AggregateQuery{
			Rect: pool[rng.Intn(len(pool))],
			Op:   ops[i%len(ops)],
			Attr: rng.Intn(2),
		}
		if _, err := eng.Aggregate(ctx, q); err != nil {
			return fmt.Errorf("experiments: aggregate drill query %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)

	res.AggQueries = cfg.Aggregates
	res.AggPerSec = float64(cfg.Aggregates) / elapsed.Seconds()
	res.AggReads = reads.Load()
	if res.AggReads != 0 {
		return fmt.Errorf("experiments: aggregate kernel dispatched %d bucket reads, want 0", res.AggReads)
	}
	return nil
}

// Table renders the goodput comparison; the individual row is the
// baseline of the × column.
func (r *BatchGoodputResult) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("EB — batch goodput under chaos: %d clients over %d hot rects × %v, M=%d, in-flight %d, window %v",
			r.Clients, r.HotRects, r.Duration, r.Disks, r.MaxInFlight, r.Window),
		"mode", "goodput qps", "×individual", "answered/issued", "fail%",
		"p50", "p99", "physical", "demand", "saved%")
	var base float64
	for _, c := range r.Cells {
		if c.Mode == "individual" {
			base = c.GoodputQPS
		}
	}
	for _, c := range r.Cells {
		speedup := "-"
		if base > 0 && c.Mode != "individual" {
			speedup = fmt.Sprintf("%.2f×", c.GoodputQPS/base)
		}
		t.AddRowf(c.Mode,
			fmt.Sprintf("%.0f", c.GoodputQPS),
			speedup,
			fmt.Sprintf("%d/%d", c.Answered, c.Issued),
			pct(c.Failed, c.Issued),
			durMS(c.P50), durMS(c.P99),
			fmt.Sprintf("%d", c.Physical),
			fmt.Sprintf("%d", c.Demand),
			fmt.Sprintf("%.0f%%", 100*c.Saved()))
	}
	return t
}

// AggregateReport summarizes the zero-read drill.
func (r *BatchGoodputResult) AggregateReport() string {
	return fmt.Sprintf("aggregate kernel: %d queries at %.0f/s with %d physical bucket reads (asserted zero)\n",
		r.AggQueries, r.AggPerSec, r.AggReads)
}
