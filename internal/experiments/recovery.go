package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
	"decluster/internal/repair"
	"decluster/internal/replica"
	"decluster/internal/serve"
	"decluster/internal/table"
)

// RecoveryConfig parameterizes Experiment R (ER): the MTTR-versus-SLO
// trade-off of online recovery. Each cell seeds silent corruption into
// a checksummed two-copy store, scrubs it clean, permanently fails one
// disk mid-soak, and rebuilds it through the serving scheduler at a
// fixed page rate while closed-loop clients keep querying — measuring
// the rebuild's MTTR against the foreground latency it costs, per
// replication scheme (chain vs. offset).
type RecoveryConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 16).
	GridSide int
	// Disks is M (default 8).
	Disks int
	// Records populates the grid file (default 12288).
	Records int
	// PageCapacity is records per page (default 16 — small pages so the
	// rebuild stream has enough pages to throttle meaningfully).
	PageCapacity int
	// Clients is the number of concurrent closed-loop query issuers
	// (default 12).
	Clients int
	// Steady and Cooldown bound the healthy phases before the failure
	// and after the rebuild (defaults 500ms and 150ms).
	Steady, Cooldown time.Duration
	// BaseLatency is the simulated healthy per-bucket read service time
	// (default 2ms).
	BaseLatency time.Duration
	// CorruptProb seeds the per-page silent-corruption plan
	// (default 0.02).
	CorruptProb float64
	// RebuildRates are the rebuild throttle settings in pages/sec, one
	// table cell each per scheme (default {50, 200, 1600}).
	RebuildRates []float64
	// Offset is the backup offset of the offset scheme (default
	// Disks/2).
	Offset int
	// FailDisk is the disk permanently failed mid-run (default 1).
	FailDisk int
	// Methods optionally restricts the declustering method set by name
	// (default HCAM only: ER varies the replication scheme and throttle,
	// not the allocation).
	Methods []string
	// Obs optionally receives the run's serving, fault, and repair
	// metrics (scrub, read-repair, rebuild, quarantines) and — when the
	// sink traces — per-query span trees. All cells share the sink.
	Obs *obs.Sink
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.GridSide == 0 {
		c.GridSide = 16
	}
	if c.Disks == 0 {
		c.Disks = 8
	}
	if c.Records == 0 {
		c.Records = 12288
	}
	if c.PageCapacity == 0 {
		c.PageCapacity = 16
	}
	if c.Clients == 0 {
		c.Clients = 12
	}
	if c.Steady == 0 {
		c.Steady = 500 * time.Millisecond
	}
	if c.Cooldown == 0 {
		c.Cooldown = 150 * time.Millisecond
	}
	if c.BaseLatency == 0 {
		c.BaseLatency = 2 * time.Millisecond
	}
	if c.CorruptProb == 0 {
		c.CorruptProb = 0.02
	}
	if len(c.RebuildRates) == 0 {
		c.RebuildRates = []float64{50, 200, 1600}
	}
	if c.Offset == 0 {
		c.Offset = c.Disks / 2
	}
	if c.FailDisk == 0 {
		c.FailDisk = 1
	}
	if len(c.Methods) == 0 {
		c.Methods = []string{"HCAM"}
	}
	return c
}

// RecoveryCell is one (method, scheme, rebuild rate) outcome.
type RecoveryCell struct {
	Method string
	Scheme string // "chain" or "offset+k"
	Rate   float64

	// Integrity pipeline counters.
	CorruptSeeded int   // pages rotted by the seeded plan
	ScrubRepaired int   // copies the pre-failure scrub pass fixed
	ReadRepairs   int64 // inline foreground repairs across the whole run

	// Rebuild outcome.
	MTTR           time.Duration // wall-clock from rebuild start to disk back in service
	PagesRebuilt   int
	BucketsRebuilt int
	Sheds          int // rebuild reads shed by admission control (each retried)

	// Foreground latency, steady phase vs. during the rebuild.
	SteadyP50, SteadyP99   time.Duration
	RebuildP50, RebuildP99 time.Duration

	Issued, Completed, Failed uint64
}

// RecoveryResult is the regenerated ER table.
type RecoveryResult struct {
	Disks, Clients int
	BaseLatency    time.Duration
	CorruptProb    float64
	FailDisk       int
	Offset         int
	Cells          []RecoveryCell
}

// Recovery runs Experiment R: for every method × scheme × rebuild rate
// it soaks the serving stack over the checksummed store through the
// corruption → scrub → permanent-failure → throttled-rebuild lifecycle
// and reports MTTR and foreground percentiles per phase.
func Recovery(cfg RecoveryConfig, opt Options) (*RecoveryResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Disks < 2 {
		return nil, fmt.Errorf("experiments: recovery needs ≥ 2 disks, got %d", cfg.Disks)
	}
	if cfg.FailDisk < 0 || cfg.FailDisk >= cfg.Disks {
		return nil, fmt.Errorf("experiments: fail disk %d outside [0,%d)", cfg.FailDisk, cfg.Disks)
	}
	g, err := grid.New(cfg.GridSide, cfg.GridSide)
	if err != nil {
		return nil, err
	}
	methods, err := opt.namedMethods(g, cfg.Disks, cfg.Methods)
	if err != nil {
		return nil, err
	}

	res := &RecoveryResult{
		Disks: cfg.Disks, Clients: cfg.Clients, BaseLatency: cfg.BaseLatency,
		CorruptProb: cfg.CorruptProb, FailDisk: cfg.FailDisk, Offset: cfg.Offset,
	}
	for _, m := range methods {
		schemes, err := replicaSchemes(m, cfg.Offset)
		if err != nil {
			return nil, err
		}
		for _, sc := range schemes {
			for _, rate := range cfg.RebuildRates {
				cell, err := runRecoveryCell(m, sc.rep, rate, cfg, opt.seed())
				if err != nil {
					return nil, err
				}
				cell.Method = lineName(m)
				cell.Scheme = sc.name
				cell.Rate = rate
				res.Cells = append(res.Cells, *cell)
			}
		}
	}
	return res, nil
}

// Foreground query phases of a recovery soak.
const (
	phaseSteady int32 = iota
	phaseRebuild
	phasePost
)

// runRecoveryCell drives one corruption → scrub → fail → rebuild
// lifecycle under closed-loop foreground load.
func runRecoveryCell(m alloc.Method, rep *replica.Replicated, rate float64, cfg RecoveryConfig, seed int64) (*RecoveryCell, error) {
	f, err := populated(m, cfg.PageCapacity, datagen.Uniform{K: 2, Seed: seed}.Generate(cfg.Records))
	if err != nil {
		return nil, err
	}
	store, err := gridfile.NewStore(f, rep.Holders)
	if err != nil {
		return nil, err
	}
	inj, err := fault.New(fault.Config{Seed: seed, CorruptProb: cfg.CorruptProb})
	if err != nil {
		return nil, err
	}
	cell := &RecoveryCell{CorruptSeeded: repair.SeedCorruption(store, inj)}

	var tracker repair.Tracker
	rr := repair.NewReadRepairer(store, &tracker, inj)
	opts := []serve.Option{
		serve.WithBucketReader(exec.NewStoreReader(store)),
		serve.WithFaults(inj),
		serve.WithFailover(rep),
		serve.WithRetry(exec.RetryPolicy{MaxAttempts: 6, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}),
		serve.WithBaseLatency(cfg.BaseLatency),
		serve.WithReadWrapper(rr.Wrap),
		// In-flight slots are a quarter of the client count, so
		// admission is the scarce resource a running rebuild read
		// visibly occupies — the contention the throttle exists to
		// bound.
		serve.WithAdmission(serve.AdmissionConfig{MaxInFlight: max(2, cfg.Clients/4), MaxQueue: max(2, cfg.Clients)}),
		serve.WithDrainTimeout(10 * time.Second),
	}
	if cfg.Obs != nil {
		inj.AttachObserver(cfg.Obs)
		tracker.AttachObserver(cfg.Obs)
		rr.Observe(cfg.Obs)
		opts = append(opts, serve.WithObserver(cfg.Obs))
	}
	sched, err := serve.New(f, opts...)
	if err != nil {
		return nil, err
	}
	sc, err := repair.NewScrubber(store, repair.ScrubConfig{Tracker: &tracker, Faults: inj, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}

	// Each foreground query is bounded end to end at 500 × BaseLatency.
	s := newSoak(500*cfg.BaseLatency, func(ctx context.Context, q grid.Rect) outcome {
		_, err := sched.Do(ctx, serve.Query{Rect: q})
		return serveOutcome(err)
	})
	// Jittered think time (0.5–1.5× of 20 × BaseLatency, ≈50% admission
	// utilization at the defaults) keeps offered load well below
	// saturation, or a strict-priority background rebuild starves: it is
	// the headroom rebuild reads compete for.
	think := 20 * cfg.BaseLatency
	s.clients(cfg.Clients, seed*2029, uniformRects(f.Grid()), func(_ outcome, _ time.Duration, rng *rand.Rand) time.Duration {
		return think/2 + time.Duration(rng.Int63n(int64(think)))
	})

	// The script runs beside the clients; however it ends, the clients
	// stop and the scheduler closes before its verdict is read.
	var rrep *repair.RebuildReport
	err = func() error {
		// First half of the steady phase runs over the still-rotten
		// store — foreground reads that trip a checksum are repaired
		// inline. Then a scrub sweep clears the residue (backup copies
		// no query touched) before the disk loss makes any remaining rot
		// unrepairable.
		s.sleep(cfg.Steady / 2)
		srep, err := sc.RunOnce(s.ctx)
		if err != nil {
			return err
		}
		if srep.Unrepairable > 0 {
			return fmt.Errorf("experiments: scrub left %d unrepairable copies", srep.Unrepairable)
		}
		cell.ScrubRepaired = srep.Repaired
		s.sleep(cfg.Steady / 2)
		inj.FailPermanent(cfg.FailDisk)
		s.phase.Store(phaseRebuild)
		// Burst of a tenth of a second — the default (a full second of
		// rate) would let mid-range throttles finish inside their burst
		// and measure nothing. Four parallel reads let an open throttle
		// actually contend with foreground admission instead of idling
		// sequentially.
		rb, err := repair.NewRebuilder(store, sched, inj, repair.RebuildConfig{
			PagesPerSec: rate, Burst: rate / 10, Parallel: 4, Tracker: &tracker,
			Obs: cfg.Obs,
		})
		if err != nil {
			return err
		}
		if rrep, err = rb.Rebuild(s.ctx, cfg.FailDisk); err != nil {
			return fmt.Errorf("experiments: rebuild at %.0f pages/s: %w", rate, err)
		}
		s.phase.Store(phasePost)
		s.sleep(cfg.Cooldown)
		return nil
	}()
	s.halt()
	s.wait()
	if _, cerr := sched.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("experiments: recovery drain: %w", cerr)
	}
	if err != nil {
		return nil, err
	}

	if bad := store.VerifyAll(); len(bad) > 0 {
		return nil, fmt.Errorf("experiments: %d corrupt pages survived the recovery lifecycle", len(bad))
	}

	cell.MTTR = rrep.Elapsed
	cell.PagesRebuilt = rrep.Pages
	cell.BucketsRebuilt = rrep.Buckets
	cell.Sheds = rrep.Sheds
	cell.ReadRepairs = rr.Repairs()
	cell.Issued = s.issued.Load()
	cell.Completed = s.total(answered)
	// Shed and unavailable queries are failures here: ER has no column
	// of their own for them.
	cell.Failed = s.total(shed, unavailable, failed)
	cell.SteadyP50 = s.percentile(phaseSteady, 0.50)
	cell.SteadyP99 = s.percentile(phaseSteady, 0.99)
	cell.RebuildP50 = s.percentile(phaseRebuild, 0.50)
	cell.RebuildP99 = s.percentile(phaseRebuild, 0.99)
	return cell, nil
}

// Table renders ER: one row per method × scheme × rebuild rate.
func (r *RecoveryResult) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("ER — online recovery, %d clients closed-loop, M=%d, corrupt p=%.3f, d%d lost mid-run",
			r.Clients, r.Disks, r.CorruptProb, r.FailDisk),
		"method", "scheme", "rate pg/s", "corrupt", "scrubbed", "readrep",
		"MTTR", "rebuilt pg", "sheds", "steady p50/p99", "rebuild p50/p99")
	for _, c := range r.Cells {
		t.AddRowf(c.Method, c.Scheme,
			fmt.Sprintf("%.0f", c.Rate),
			fmt.Sprintf("%d", c.CorruptSeeded),
			fmt.Sprintf("%d", c.ScrubRepaired),
			fmt.Sprintf("%d", c.ReadRepairs),
			durMS(c.MTTR),
			fmt.Sprintf("%d", c.PagesRebuilt),
			fmt.Sprintf("%d", c.Sheds),
			fmt.Sprintf("%s/%s", durMS(c.SteadyP50), durMS(c.SteadyP99)),
			fmt.Sprintf("%s/%s", durMS(c.RebuildP50), durMS(c.RebuildP99)))
	}
	return t
}

// ThrottleReport summarizes the rebuild-rate trade-off per scheme: as
// the throttle opens, MTTR must fall while the foreground latency paid
// during the rebuild window rises.
func (r *RecoveryResult) ThrottleReport() string {
	type key struct{ method, scheme string }
	byScheme := map[key][]RecoveryCell{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Method, c.Scheme}
		if _, seen := byScheme[k]; !seen {
			order = append(order, k)
		}
		byScheme[k] = append(byScheme[k], c)
	}
	var b strings.Builder
	b.WriteString("rebuild throttle trade-off (rate → MTTR, foreground p50/p99 during rebuild):\n")
	for _, k := range order {
		cells := byScheme[k]
		// Rate 0 means unthrottled — the widest-open setting, so it
		// sorts last, not first.
		eff := func(rate float64) float64 {
			if rate == 0 {
				return math.Inf(1)
			}
			return rate
		}
		sort.Slice(cells, func(i, j int) bool { return eff(cells[i].Rate) < eff(cells[j].Rate) })
		fmt.Fprintf(&b, "  %-6s %-10s", k.method, k.scheme)
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  |")
			}
			label := fmt.Sprintf("%6.0f pg/s", c.Rate)
			if c.Rate == 0 {
				label = "unthrottled"
			}
			fmt.Fprintf(&b, "  %s → MTTR %8s, fg %s/%s",
				label, durMS(c.MTTR), durMS(c.RebuildP50), durMS(c.RebuildP99))
		}
		first, last := cells[0], cells[len(cells)-1]
		verdict := "MTTR fell as the throttle opened"
		if last.MTTR >= first.MTTR {
			verdict = "MTTR did not fall — throttle range too narrow for this run"
		}
		if last.RebuildP50 > first.RebuildP50 {
			verdict += "; foreground paid for it"
		}
		fmt.Fprintf(&b, "   [%s]\n", verdict)
	}
	return b.String()
}
