package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

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

// ChaosConfig parameterizes Experiment C (EC): a sustained multi-client
// soak through the serving scheduler while a chaos driver flips disks
// failed/recovered and ramps the transient-error probability mid-run.
// It reports goodput, shed rate, unavailability, and latency
// percentiles per declustering method × replication scheme, with and
// without hedged reads — the paper's response-time story re-told as a
// tail-latency story under overload and fault storms.
type ChaosConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 16).
	GridSide int
	// Disks is M (default 8).
	Disks int
	// Records populates the grid file (default 4096).
	Records int
	// Clients is the number of concurrent query issuers (default 12).
	Clients int
	// QPS is the total target arrival rate across clients; 0 runs
	// closed-loop (each client issues its next query as soon as the
	// previous one resolves).
	QPS float64
	// Duration is the soak length per table cell (default 1s).
	Duration time.Duration
	// BaseLatency is the simulated healthy per-bucket read service time
	// (default 2ms). Keep it well above the platform's sleep
	// granularity (~1ms on coarse-tick kernels), or every read inflates
	// to the timer floor and the hedge delay loses its meaning.
	BaseLatency time.Duration
	// HedgeAfter is the hedged-read delay for the +hedge schemes
	// (default 2.5 × BaseLatency).
	HedgeAfter time.Duration
	// Offset is the backup offset of the offset-replication schemes
	// (default Disks/2).
	Offset int
	// Methods optionally restricts the method set by name (all paper
	// methods when empty).
	Methods []string
	// Obs optionally receives the soak's serving metrics and (when the
	// sink traces) per-query span trees. All cells share the sink, so
	// its counters aggregate across every method × scheme.
	Obs *obs.Sink
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.GridSide == 0 {
		c.GridSide = 16
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
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.BaseLatency == 0 {
		c.BaseLatency = 2 * time.Millisecond
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 5 * c.BaseLatency / 2
	}
	if c.Offset == 0 {
		c.Offset = c.Disks / 2
	}
	return c
}

// ChaosCell is one (method, scheme) soak outcome.
type ChaosCell struct {
	Method string
	Scheme string // "none", "chain", "offset+k", each optionally "+hedge"
	Hedged bool

	Issued      uint64 // queries submitted
	Completed   uint64 // queries answered correctly
	Shed        uint64 // rejected/evicted/expired by admission control
	Unavailable uint64 // typed unavailability (buckets unreachable)
	Failed      uint64 // other failures (deadline overruns, fault storms)

	GoodputQPS       float64 // Completed / Duration
	P50, P99, P999   time.Duration
	HedgesIssued     uint64
	HedgesWon        uint64
	BreakerTrips     uint64
	DegradedAnswered uint64 // completed queries that ran degraded
}

// ChaosResult is the regenerated soak table.
type ChaosResult struct {
	Disks, Clients  int
	QPS             float64
	Duration        time.Duration
	BaseLatency     time.Duration
	HedgeAfter      time.Duration
	StragglerDisk   int
	StragglerFactor float64
	FailedDisk      int
	Offset          int
	Cells           []ChaosCell
}

// Chaos runs Experiment C: for every method × scheme it drives the
// configured client load through a serve.Scheduler for Duration while
// the chaos driver (a) fails a disk at ¼ of the run and recovers it at
// ½, and (b) ramps the transient probability to its peak for the third
// quarter. A straggler disk is present throughout, which is what the
// +hedge schemes neutralize.
func Chaos(cfg ChaosConfig, opt Options) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Disks < 2 {
		return nil, fmt.Errorf("experiments: chaos needs ≥ 2 disks, got %d", cfg.Disks)
	}
	g, err := grid.New(cfg.GridSide, cfg.GridSide)
	if err != nil {
		return nil, err
	}
	methods, err := opt.namedMethods(g, cfg.Disks, cfg.Methods)
	if err != nil {
		return nil, err
	}

	res := &ChaosResult{
		Disks: cfg.Disks, Clients: cfg.Clients, QPS: cfg.QPS,
		Duration: cfg.Duration, BaseLatency: cfg.BaseLatency,
		HedgeAfter: cfg.HedgeAfter, StragglerDisk: 0,
		StragglerFactor: chaosStragglerFactor, FailedDisk: 1,
		Offset: cfg.Offset,
	}
	for _, m := range methods {
		f, err := populated(m, 0, datagen.Uniform{K: 2, Seed: opt.seed()}.Generate(cfg.Records))
		if err != nil {
			return nil, err
		}
		schemes, err := replicaSchemes(m, cfg.Offset)
		if err != nil {
			return nil, err
		}
		for _, sc := range append([]replicaScheme{{"none", nil}}, schemes...) {
			for _, hedged := range []bool{false, true} {
				if hedged && sc.rep == nil {
					continue // a single copy has nothing to hedge to
				}
				cell, err := runChaosCell(f, sc.rep, hedged, cfg, opt.seed())
				if err != nil {
					return nil, err
				}
				cell.Method = lineName(m)
				cell.Scheme = sc.name
				if hedged {
					cell.Scheme += "+hedge"
				}
				res.Cells = append(res.Cells, *cell)
			}
		}
	}
	return res, nil
}

// chaosTransientBase and chaosTransientPeak are the per-read transient
// error probabilities outside and inside the mid-run fault storm.
const chaosTransientBase, chaosTransientPeak = 0.02, 0.25

// chaosStragglerFactor slows disk 0 for the whole run: the tail the
// +hedge schemes exist to cut.
const chaosStragglerFactor = 8

// runChaosCell soaks one scheduler configuration.
func runChaosCell(f *gridfile.File, rep *replica.Replicated, hedged bool, cfg ChaosConfig, seed int64) (*ChaosCell, error) {
	inj, err := fault.New(fault.Config{
		Seed:          seed,
		TransientProb: chaosTransientBase,
		Stragglers:    map[int]float64{0: chaosStragglerFactor},
	})
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		inj.AttachObserver(cfg.Obs)
	}
	opts := []serve.Option{
		serve.WithFaults(inj),
		serve.WithRetry(exec.RetryPolicy{MaxAttempts: 8, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}),
		serve.WithBaseLatency(cfg.BaseLatency),
		// Admission sits deliberately below Clients, so overload sheds
		// rather than queueing without bound.
		serve.WithAdmission(serve.AdmissionConfig{
			MaxInFlight: max(2, cfg.Clients/2), MaxQueue: max(2, cfg.Clients/4), DropExpired: true,
		}),
		// Breakers trip on error runs only: the straggler is the hedge
		// schemes' job, so the latency threshold stays disabled to keep
		// the hedged/unhedged comparison clean.
		serve.WithBreaker(serve.BreakerConfig{
			ErrorThreshold: 6,
			Cooldown:       cfg.Duration / 10,
		}),
		serve.WithDrainTimeout(5 * time.Second),
	}
	if rep != nil {
		opts = append(opts, serve.WithFailover(rep))
	}
	if hedged {
		opts = append(opts, serve.WithHedging(serve.HedgeConfig{After: cfg.HedgeAfter}))
	}
	if cfg.Obs != nil {
		opts = append(opts, serve.WithObserver(cfg.Obs))
	}
	sched, err := serve.New(f, opts...)
	if err != nil {
		return nil, err
	}

	// Each query is bounded end to end, queueing included, at 500 ×
	// BaseLatency. Uniform priority: the percentile columns compare
	// hedging and replication, so priority starvation must not pollute
	// the tail (eviction is exercised by the serve tests).
	var degraded atomic.Uint64
	s := newSoak(500*cfg.BaseLatency, func(ctx context.Context, q grid.Rect) outcome {
		res, err := sched.Do(ctx, serve.Query{Rect: q})
		if err == nil && res.Degraded {
			degraded.Add(1)
		}
		return serveOutcome(err)
	})

	var interval time.Duration
	if cfg.QPS > 0 {
		interval = time.Duration(float64(time.Second) * float64(cfg.Clients) / cfg.QPS)
	}
	s.clients(cfg.Clients, seed*1031, uniformRects(f.Grid()), func(o outcome, elapsed time.Duration, _ *rand.Rand) time.Duration {
		// Under a QPS target a client rests for what is left of its
		// interval; closed-loop (interval 0) it does not rest at all.
		pause := max(0, interval-elapsed)
		// A shed client also backs off instead of hammering the
		// admission gate in a hot loop — fast-reject only helps if
		// rejected clients actually yield — and so does an unavailable
		// one: unreplicated routing rejects instantly while a disk is
		// down.
		if o == shed || o == unavailable {
			pause += 10 * cfg.BaseLatency
		}
		return pause
	})

	// The chaos timeline: disk 1 is down for the second quarter of the
	// run, the transient probability at its peak for the third.
	quarter := cfg.Duration / 4
	s.at(quarter, func() { inj.FlipDisks([]int{1}, nil) })
	s.at(2*quarter, func() {
		inj.FlipDisks(nil, []int{1})
		inj.SetTransientProb(chaosTransientPeak)
	})
	s.at(3*quarter, func() { inj.SetTransientProb(chaosTransientBase) })
	s.at(cfg.Duration, s.halt)
	s.wait()
	snap, err := sched.Close()
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos drain: %w", err)
	}

	cell := &ChaosCell{
		Hedged:           hedged,
		Issued:           s.issued.Load(),
		Completed:        s.total(answered),
		Shed:             s.total(shed),
		Unavailable:      s.total(unavailable),
		Failed:           s.total(failed),
		DegradedAnswered: degraded.Load(),
		HedgesIssued:     snap.Stats.HedgesIssued,
		HedgesWon:        snap.Stats.HedgesWon,
		BreakerTrips:     snap.Stats.BreakerTrips,
		P50:              s.percentile(0, 0.50),
		P99:              s.percentile(0, 0.99),
		P999:             s.percentile(0, 0.999),
	}
	cell.GoodputQPS = float64(cell.Completed) / cfg.Duration.Seconds()
	return cell, nil
}

// Table renders the soak: one row per method × scheme.
func (r *ChaosResult) Table() *table.Table {
	load := "closed-loop"
	if r.QPS > 0 {
		load = fmt.Sprintf("%.0f qps", r.QPS)
	}
	t := table.New(
		fmt.Sprintf("EC — chaos soak, %d clients (%s) × %v, M=%d, straggler d%d×%g, d%d fails mid-run",
			r.Clients, load, r.Duration, r.Disks, r.StragglerDisk, r.StragglerFactor, r.FailedDisk),
		"method", "scheme", "goodput qps", "shed%", "unavail%", "fail%",
		"p50", "p99", "p999", "hedges won", "trips")
	for _, c := range r.Cells {
		t.AddRowf(c.Method, c.Scheme,
			fmt.Sprintf("%.0f", c.GoodputQPS),
			pct(c.Shed, c.Issued), pct(c.Unavailable, c.Issued), pct(c.Failed, c.Issued),
			durMS(c.P50), durMS(c.P99), durMS(c.P999),
			fmt.Sprintf("%d/%d", c.HedgesWon, c.HedgesIssued),
			fmt.Sprintf("%d", c.BreakerTrips))
	}
	return t
}

// HedgeReport summarizes the hedging effect: per method × replication
// scheme, the p99 with hedging off versus on.
func (r *ChaosResult) HedgeReport() string {
	type key struct{ method, base string }
	off := map[key]ChaosCell{}
	on := map[key]ChaosCell{}
	for _, c := range r.Cells {
		if c.Scheme == "none" {
			continue
		}
		base := strings.TrimSuffix(c.Scheme, "+hedge")
		k := key{c.Method, base}
		if c.Hedged {
			on[k] = c
		} else {
			off[k] = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "hedging effect under a ×%g straggler (p99, hedge off → on):\n", r.StragglerFactor)
	for _, c := range r.Cells {
		if c.Hedged || c.Scheme == "none" {
			continue
		}
		k := key{c.Method, c.Scheme}
		h, ok := on[k]
		if !ok {
			continue
		}
		verdict := "improved"
		if h.P99 >= c.P99 {
			verdict = "no win"
		}
		fmt.Fprintf(&b, "  %-6s %-10s %8s → %-8s (%s; %d/%d hedges won)\n",
			k.method, k.base, durMS(c.P99), durMS(h.P99), verdict, h.HedgesWon, h.HedgesIssued)
	}
	return b.String()
}

func pct(n, total uint64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

func durMS(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}
