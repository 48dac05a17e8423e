package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/autopilot"
	"decluster/internal/cluster"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/obs"
	"decluster/internal/repair"
	"decluster/internal/serve"
	"decluster/internal/table"
)

// ClusterChaosConfig parameterizes Experiment N (EN): a client load
// driven through the scatter/gather router of a real multi-node
// cluster (every node a separate HTTP server on loopback) while a
// seeded node-level fault schedule crashes, restarts, and rolls nodes.
// It reports availability, partial-result rate, and latency percentiles
// per node-placement scheme × fault scenario — the paper's declustering
// story lifted one level, from disks inside one machine to nodes inside
// one cluster.
type ClusterChaosConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 8).
	GridSide int
	// Nodes is the cluster size (default 4).
	Nodes int
	// DisksPerNode is each node's local disk count (default 4).
	DisksPerNode int
	// Records populates the dataset (default 4096).
	Records int
	// Clients is the number of concurrent closed-loop query issuers
	// (default 8).
	Clients int
	// Duration is the soak length per table cell (default 1s). The
	// fault schedule scales with it: node loss crashes at ¼ and
	// restarts at ¾; a rolling restart walks every node through the
	// middle half.
	Duration time.Duration
	// BaseLatency is each node's simulated per-bucket read service
	// time (default 2ms).
	BaseLatency time.Duration
	// HedgeAfter is the router's hedge delay (default 4 × BaseLatency).
	HedgeAfter time.Duration
	// Replicas is the copies per shard of the replicated placements
	// (default 2; the "none" placement always runs with 1, and the
	// offset placement strides Nodes/2).
	Replicas int
	// MigrateRate paces the join/leave bucket copies in pages/second
	// (0 = unthrottled); autopilot-driven migrations obey it too.
	MigrateRate float64
	// SpikeFactor sets the flash-crowd surge intensity: during the
	// surge window, (SpikeFactor−1) × Clients open-loop issuers each
	// fire a hot-region query every 8 × BaseLatency, arrivals
	// independent of completions (default 2 — enough to drown the
	// static cluster's hot shards while staying inside what one extra
	// node can absorb).
	SpikeFactor float64
	// AutopilotP99 is the autopilot scenarios' scale-up trigger: the
	// controller joins the standby once windowed per-node p99 crosses
	// it (default 10 × BaseLatency). It doubles as the stated p99 bound
	// the flash-crowd cells are judged against.
	AutopilotP99 time.Duration
	// Scenarios selects which chaos scenarios run per placement
	// (default: node-loss, rolling-restart, partition, join, leave).
	// Also available by name: flash-crowd (load surge, static
	// membership), flash-crowd+autopilot (same surge with the
	// load-driven membership controller attached),
	// blinking-partition (a rapidly flapping partition adversarially
	// aimed at the controller's anti-thrash defenses), and slow-node (one
	// node answers 10 base latencies late for the middle half).
	Scenarios []string
	// Obs optionally receives router, node and autopilot metrics; every
	// cell shares the sink.
	Obs *obs.Sink
}

func (c ClusterChaosConfig) withDefaults() ClusterChaosConfig {
	if c.GridSide == 0 {
		c.GridSide = 8
	}
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.DisksPerNode == 0 {
		c.DisksPerNode = 4
	}
	if c.Records == 0 {
		c.Records = 4096
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.BaseLatency == 0 {
		c.BaseLatency = 2 * time.Millisecond
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 4 * c.BaseLatency
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.SpikeFactor == 0 {
		c.SpikeFactor = 2
	}
	if c.AutopilotP99 == 0 {
		c.AutopilotP99 = 10 * c.BaseLatency
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = []string{"node-loss", "rolling-restart", "partition", "join", "leave"}
	}
	return c
}

// ClusterChaosCell is one (placement, scenario) soak outcome.
type ClusterChaosCell struct {
	Placement string // "none", "chain", "offset+k"
	Replicas  int
	Scenario  string // "node-loss", "rolling-restart", "partition", "join", "leave"

	Issued    uint64 // queries submitted
	Completed uint64 // fully answered
	Partial   uint64 // answered with typed partial results
	Failed    uint64 // anything else (deadline overruns, exhaustion)

	// SubQueries/SubCovered measure completeness at sub-query
	// granularity across every issued query.
	SubQueries, SubCovered uint64

	P50, P99     time.Duration
	Hedges       uint64
	HedgeWins    uint64
	Retries      uint64
	BreakerTrips uint64

	// RebuiltRecords counts records restored onto the crashed node by
	// the mid-run cross-node rebuild (node-loss scenario, replicated
	// placements only).
	RebuiltRecords int

	// Events is the fault timeline as applied. It is a pure function of
	// the seed — replays compare equal — so rebuild outcomes, which race
	// real foreground load on the wall clock, are logged separately.
	Events []string

	// RebuildLog records cross-node rebuild outcomes (success with
	// counts and elapsed time, or how far a cancelled rebuild got).
	RebuildLog []string

	// FinalEpoch is the router's shard-map epoch when the soak ended —
	// 1 for static-membership scenarios, advanced past it when a
	// join/leave migration completed.
	FinalEpoch uint64

	// BreakersOpenAtEnd counts router breakers still open when the soak
	// ended. The partition scenario asserts recovery through it: the
	// victim's breaker opens while it is unreachable and must close
	// again — half-open probe admitted — once the partition heals.
	BreakersOpenAtEnd int

	// ProbationAtEnd counts members the router still routes around as
	// stragglers when the soak ended. The slow-node scenario asserts the
	// healed victim leads its shards again through it.
	ProbationAtEnd int

	// MigrationLog records the online membership change's outcome
	// (join/leave scenarios): epoch transition, buckets and records
	// moved, or how an aborted handoff rolled back.
	MigrationLog []string

	// Autopilot* fields are populated only by the autopilot scenarios:
	// completed membership changes by direction, fuse vetoes of
	// otherwise-ready actions, executed direction reversals inside the
	// thrash window (the flapping metric — asserted zero under the
	// blinking-partition schedule), and the migration cost the
	// controller incurred in buckets and records moved.
	AutopilotJoins, AutopilotLeaves uint64
	AutopilotVetoes                 uint64
	AutopilotThrash                 uint64
	AutopilotBuckets                int
	AutopilotRecords                int

	// AutopilotLog keeps the controller's decision lines (bounded) —
	// the replayable narrative of why the cluster grew or held still.
	AutopilotLog []string

	// PartialLog keeps the first few partial-result errors verbatim —
	// each names the uncovered sub-rectangles and the first underlying
	// cause, which is what a completeness regression gets diagnosed
	// from.
	PartialLog []string
}

// Availability is the fraction of issued queries answered completely.
func (c *ClusterChaosCell) Availability() float64 {
	if c.Issued == 0 {
		return 0
	}
	return float64(c.Completed) / float64(c.Issued)
}

// Completeness is the covered fraction of all sub-queries.
func (c *ClusterChaosCell) Completeness() float64 {
	if c.SubQueries == 0 {
		return 0
	}
	return float64(c.SubCovered) / float64(c.SubQueries)
}

// ClusterChaosResult is the regenerated cluster-chaos table.
type ClusterChaosResult struct {
	Nodes, DisksPerNode int
	Clients             int
	Duration            time.Duration
	BaseLatency         time.Duration
	HedgeAfter          time.Duration
	// Offset is the offset placement's stride, Nodes/2.
	Offset int
	// Seed replays the exact node fault schedules: every schedule is a
	// pure function of (Seed, Nodes, Duration).
	Seed  int64
	Cells []ClusterChaosCell
}

// ClusterChaos runs Experiment N. For each placement scheme — no
// replication, chained, offset — and each chaos scenario — lose one
// node mid-run, roll-restart every node, partition one node for the
// middle half, grow the cluster by one node online, shrink it by one —
// it boots a fresh loopback cluster, soaks it with closed-loop clients,
// and drives the seeded schedule against it. Node-loss cells with
// replication also rebuild the dead node's shards from peer replicas
// mid-run, throttled, at background priority. Join and leave cells run
// the full online migration — prepare, throttled copy, cutover,
// adopt — under the same query load.
func ClusterChaos(cfg ClusterChaosConfig, opt Options) (*ClusterChaosResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("experiments: cluster chaos needs ≥ 2 nodes, got %d", cfg.Nodes)
	}
	g, err := grid.New(cfg.GridSide, cfg.GridSide)
	if err != nil {
		return nil, err
	}
	method, err := alloc.NewFX(g, cfg.DisksPerNode)
	if err != nil {
		return nil, err
	}
	records := datagen.Uniform{K: 2, Seed: opt.seed()}.Generate(cfg.Records)

	res := &ClusterChaosResult{
		Nodes: cfg.Nodes, DisksPerNode: cfg.DisksPerNode,
		Clients: cfg.Clients, Duration: cfg.Duration,
		BaseLatency: cfg.BaseLatency, HedgeAfter: cfg.HedgeAfter,
		Offset: cfg.Nodes / 2, Seed: opt.seed(),
	}
	if cfg.Replicas < 1 || cfg.Replicas > cfg.Nodes {
		return nil, fmt.Errorf("experiments: cluster replicas %d outside [1, %d nodes]", cfg.Replicas, cfg.Nodes)
	}
	placements := []struct {
		name     string
		replicas int
		stride   int
	}{
		{"none", 1, 1},
		{"chain", cfg.Replicas, 1},
		{fmt.Sprintf("offset+%d", res.Offset), cfg.Replicas, res.Offset},
	}
	for _, p := range placements {
		sm, err := cluster.NewShardMap(g, cfg.Nodes, p.replicas, p.stride)
		if err != nil {
			return nil, err
		}
		for _, scenario := range cfg.Scenarios {
			cell, err := runClusterCell(sm, method, records, scenario, cfg, opt.seed())
			if err != nil {
				return nil, err
			}
			cell.Placement = p.name
			cell.Replicas = p.replicas
			cell.Scenario = scenario
			res.Cells = append(res.Cells, *cell)
		}
	}
	return res, nil
}

// runClusterCell soaks one cluster configuration under one scenario.
func runClusterCell(sm *cluster.ShardMap, method alloc.Method, records []datagen.Record, scenario string, cfg ClusterChaosConfig, seed int64) (*ClusterChaosCell, error) {
	autopiloted := scenario == "flash-crowd+autopilot" || scenario == "blinking-partition"
	standbys := 0
	if scenario == "join" || autopiloted {
		standbys = 1 // the node a migration could bring in
	}
	h, err := cluster.StartHarness(cluster.HarnessConfig{
		Map:      sm,
		Method:   method,
		Records:  records,
		Standbys: standbys,
		SlowUnit: cfg.BaseLatency, // a slow factor counts base latencies
		Obs:      cfg.Obs,
		ServeOptions: []serve.Option{
			serve.WithBaseLatency(cfg.BaseLatency),
			serve.WithRetry(exec.RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}),
		},
		Router: cluster.RouterConfig{
			// The per-attempt deadline against one node is what turns a
			// blackholed node into a retryable error.
			NodeDeadline: 50 * cfg.BaseLatency,
			Retry:        exec.RetryPolicy{MaxAttempts: 4, BaseBackoff: cfg.BaseLatency / 2, MaxBackoff: 4 * cfg.BaseLatency},
			HedgeAfter:   cfg.HedgeAfter,
			Breaker: serve.BreakerConfig{
				ErrorThreshold: 4,
				Cooldown:       cfg.Duration / 10,
			},
			Obs: cfg.Obs,
		},
	})
	if err != nil {
		return nil, err
	}
	defer h.Close()

	var schedule fault.NodeSchedule // empty unless the scenario is a fault
	hasSpike := false
	switch scenario {
	case "node-loss":
		schedule = fault.NodeLossSchedule(seed, sm.Nodes(), cfg.Duration)
	case "rolling-restart":
		schedule = fault.RollingRestartSchedule(seed, sm.Nodes(), cfg.Duration)
	case "partition":
		schedule = fault.PartitionSchedule(seed, sm.Nodes(), cfg.Duration)
	case "blinking-partition":
		schedule = fault.BlinkingPartitionSchedule(seed, sm.Nodes(), cfg.Duration, 4)
	case "slow-node":
		schedule = fault.SlowNodeSchedule(seed, sm.Nodes(), cfg.Duration, 11)
	case "join", "leave":
		// Membership changes are the chaos: no fault schedule, the
		// migration itself runs against live traffic.
	case "flash-crowd", "flash-crowd+autopilot":
		// The chaos is a load surge, not a fault.
		hasSpike = true
	default:
		return nil, fmt.Errorf("experiments: unknown cluster scenario %q", scenario)
	}

	g := sm.Grid()

	// The autopilot scenarios attach the load-driven membership
	// controller to the same router the clients query through; it
	// decides from live signals only, with no knowledge of the
	// schedules driving the chaos.
	var ap *autopilot.Controller
	if autopiloted {
		pol := autopilot.Policy{
			ScaleUpP99:   cfg.AutopilotP99,
			HysteresisUp: 2,
			CoolDown:     cfg.Duration / 8,
			MinNodes:     sm.Nodes(),
			MaxNodes:     sm.Nodes() + standbys,
		}
		if scenario == "blinking-partition" {
			// Give the adversary both directions to flap between; the
			// fuses, hysteresis, and cool-down must still keep the
			// thrash counter at zero.
			pol.ScaleDownP99 = cfg.BaseLatency
		}
		ap, err = autopilot.New(autopilot.Config{
			Router:      h.Router(),
			Endpoints:   h.URLs(),
			Obs:         cfg.Obs,
			Tick:        max(cfg.Duration/50, 5*time.Millisecond),
			MigrateRate: cfg.MigrateRate,
			Policy:      pol,
		})
		if err != nil {
			return nil, err
		}
		ap.Start()
	}

	cell := &ClusterChaosCell{}
	var logMu sync.Mutex // guards the cell's logs: timeline actions and issuers both append
	logf := func(log *[]string, format string, args ...any) {
		logMu.Lock()
		*log = append(*log, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	var subQ, subC, hedges, hedgeWins, retries atomic.Uint64
	deadline := 250 * cfg.BaseLatency // per query, end to end; the recovery sweep's probes too
	s := newSoak(deadline, func(ctx context.Context, q grid.Rect) outcome {
		r, err := h.Router().Search(ctx, q)
		if r != nil {
			subQ.Add(uint64(r.SubQueries))
			subC.Add(uint64(r.Covered))
			hedges.Add(uint64(r.Hedges))
			hedgeWins.Add(uint64(r.HedgeWins))
			retries.Add(uint64(r.Retries))
		}
		switch {
		case err == nil:
			return answered
		case errors.Is(err, cluster.ErrPartial):
			logMu.Lock()
			if len(cell.PartialLog) < 8 {
				cell.PartialLog = append(cell.PartialLog, err.Error())
			}
			logMu.Unlock()
			return partial
		default:
			return failed
		}
	})

	if scenario == "join" || scenario == "leave" {
		s.at(cfg.Duration/4, func() { runClusterMigration(h, sm, scenario, cfg, seed, cell, logf) })
	}
	// On a node-loss crash with replication available, the victim's
	// shards are rebuilt from its peers while it is down, so the restart
	// at ¾ brings back a node whose data was restored over the wire, not
	// preserved by fiat.
	var rebuildWG sync.WaitGroup
	var rebuilt atomic.Int64
	rebuild := func(victim int) {
		defer rebuildWG.Done()
		// The rebuild gets its own deadline rather than the soak's: it
		// races real foreground load on the wall clock, and a soak that
		// ends mid-stream should let the repair converge, not strand the
		// victim empty.
		rctx, rcancel := context.WithTimeout(context.Background(), 4*cfg.Duration+2*time.Second)
		defer rcancel()
		rstart := time.Now()
		// No Throttle: the mid-run node rebuild is unthrottled.
		st, err := cluster.RebuildNode(rctx, cluster.RebuildConfig{
			Map:       sm,
			Endpoints: h.URLs(),
			Obs:       cfg.Obs,
		}, h.Node(victim))
		if err != nil {
			logf(&cell.RebuildLog, "rebuild node %d stopped after %d buckets (%d records): %v",
				victim, st.Buckets, st.Records, err)
			return
		}
		rebuilt.Store(int64(st.Records))
		logf(&cell.RebuildLog, "rebuilt node %d: %d records in %v (%d retries)",
			victim, st.Records, time.Since(rstart).Round(time.Millisecond), st.Retries)
	}
	// The seeded fault schedule plays in At order on the soak's own clock.
	s.at(0, func() {
		for _, e := range schedule.Events {
			if !s.sleep(e.At-time.Since(s.start)) || h.Faults().Apply(e) != nil {
				return
			}
			logf(&cell.Events, "%v %s node %d", e.At.Round(time.Millisecond), e.Kind, e.Node)
			if e.Kind == fault.EventCrash && scenario == "node-loss" && sm.Replicas() > 1 {
				rebuildWG.Add(1)
				go rebuild(e.Node)
			}
		}
	})

	if hasSpike {
		// Flash crowd: for the seeded surge window (SpikeFactor−1) ×
		// Clients open-loop issuers hammer the schedule's hot region, one
		// query each every 8 × BaseLatency. Under-capacity is the regime a
		// membership change can fix.
		spike := fault.NewLoadSpikeSchedule(seed, g.K(), cfg.Duration, cfg.SpikeFactor)
		cell.Events = append(cell.Events, spike.String())
		lo, hi := spike.Region(g.Dims())
		extra := max(1, int((cfg.SpikeFactor-1)*float64(cfg.Clients)))
		s.arrivals(extra, seed*104729, spike.Start, spike.End, 8*cfg.BaseLatency, func(rng *rand.Rand) grid.Rect {
			x := lo[0] + rng.Intn(hi[0]-lo[0]+1)
			y := lo[1] + rng.Intn(hi[1]-lo[1]+1)
			x2 := x + rng.Intn(hi[0]-x+1)
			y2 := y + rng.Intn(hi[1]-y+1)
			return g.MustRect(grid.Coord{x, y}, grid.Coord{x2, y2})
		})
	}
	s.clients(cfg.Clients, seed*7919, uniformRects(g), closedLoop)
	s.at(cfg.Duration, s.halt)
	s.wait()
	rebuildWG.Wait()
	if ap != nil {
		// Stop waits out any migration still in flight, so the stats
		// and the epoch below are settled, not racing a handoff.
		ap.Stop()
		st := ap.Stats()
		cell.AutopilotJoins = st.Joins
		cell.AutopilotLeaves = st.Leaves
		cell.AutopilotVetoes = st.Vetoes
		cell.AutopilotThrash = st.Thrash
		cell.AutopilotBuckets = st.Buckets
		cell.AutopilotRecords = st.Records
		cell.AutopilotLog = ap.DecisionLog()
	}

	cell.Issued = s.issued.Load()
	cell.Completed = s.total(answered)
	cell.Partial = s.total(partial)
	cell.Failed = s.total(failed)
	cell.SubQueries = subQ.Load()
	cell.SubCovered = subC.Load()
	cell.RebuiltRecords = int(rebuilt.Load())
	cell.BreakerTrips = h.Router().Breakers().Trips()
	cell.FinalEpoch = h.Router().Epoch()

	// Recovery sweep: every schedule ends healed, so the cluster must
	// converge to zero open breakers and no member on probation without
	// any manual reset — but the soak can end mid-cooldown, before the
	// probe that would close the last breaker or end the last probation
	// fires. Drive light traffic for a bounded grace (a few cooldowns) and
	// record the verdict.
	cooldown := cfg.Duration / 10
	recoverBy := time.Now().Add(4 * cooldown)
	for (len(h.Router().Breakers().Open()) > 0 || len(h.Router().OnProbation()) > 0) && time.Now().Before(recoverBy) {
		qctx, qcancel := context.WithTimeout(context.Background(), deadline)
		_, _ = h.Router().Search(qctx, g.FullRect())
		qcancel()
		time.Sleep(cooldown / 4)
	}
	cell.BreakersOpenAtEnd = len(h.Router().Breakers().Open())
	cell.ProbationAtEnd = len(h.Router().OnProbation())
	cell.Hedges = hedges.Load()
	cell.HedgeWins = hedgeWins.Load()
	cell.Retries = retries.Load()
	cell.P50 = s.percentile(0, 0.50)
	cell.P99 = s.percentile(0, 0.99)
	return cell, nil
}

// runClusterMigration is the join/leave scenarios' timeline action: at
// ¼ of the soak it plans the membership change from the router's live
// map and executes it online — prepare, throttled copy, cutover,
// adopt — while the closed-loop clients keep
// querying. The migration runs on its own deadline rather than the
// soak's: queries stop at the end of the run, but an in-flight handoff
// is left to converge (or abort on its own) so the cell reports the
// epoch the cluster actually settled on.
func runClusterMigration(h *cluster.Harness, sm *cluster.ShardMap, scenario string, cfg ClusterChaosConfig, seed int64, cell *ClusterChaosCell, logf func(log *[]string, format string, args ...any)) {
	var plan *cluster.MigrationPlan
	var err error
	if scenario == "join" {
		plan, err = cluster.PlanJoin(h.Map())
	} else {
		victim := h.Map().MemberAt(fault.Pick(seed, 0, sm.Nodes()))
		plan, err = cluster.PlanLeave(h.Map(), victim)
	}
	if err != nil {
		logf(&cell.MigrationLog, "plan: %v", err)
		return
	}
	// The plan line is deterministic — a pure function of seed and
	// geometry — so it lives in Events with the fault timelines.
	logf(&cell.Events, "%v %s", (cfg.Duration / 4).Round(time.Millisecond), plan)
	throttle, err := repair.NewThrottle(cfg.MigrateRate, 0)
	if err != nil {
		logf(&cell.MigrationLog, "throttle: %v", err)
		return
	}
	mctx, mcancel := context.WithTimeout(context.Background(), 4*cfg.Duration+2*time.Second)
	defer mcancel()
	mstart := time.Now()
	stats, err := cluster.Migrate(mctx, cluster.MigrateConfig{
		Plan:      plan,
		Endpoints: h.URLs(),
		Throttle:  throttle,
		Router:    h.Router(),
		Obs:       cfg.Obs,
	})
	if err != nil {
		logf(&cell.MigrationLog, "%s aborted after %d buckets: %v", scenario, stats.Buckets, err)
		return
	}
	logf(&cell.MigrationLog, "%s: epoch %d → %d, %d buckets (%d records) in %v, %d retries",
		scenario, plan.From.Epoch(), plan.To.Epoch(), stats.Buckets, stats.Records,
		time.Since(mstart).Round(time.Millisecond), stats.Retries)
}

// Table renders the cluster soak: one row per placement × scenario.
func (r *ClusterChaosResult) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("EN — cluster chaos, %d nodes × %d disks, %d clients × %v, base %v (replay with -seed %d)",
			r.Nodes, r.DisksPerNode, r.Clients, r.Duration, r.BaseLatency, r.Seed),
		"placement", "R", "scenario", "issued", "avail%", "partial%", "fail%",
		"complete%", "p50", "p99", "trips", "rebuilt", "epoch", "autopilot")
	for i := range r.Cells {
		c := &r.Cells[i]
		ap := "-"
		if strings.Contains(c.Scenario, "autopilot") || c.Scenario == "blinking-partition" {
			ap = fmt.Sprintf("j%d l%d v%d t%d b%d",
				c.AutopilotJoins, c.AutopilotLeaves, c.AutopilotVetoes,
				c.AutopilotThrash, c.AutopilotBuckets)
		}
		t.AddRowf(c.Placement, fmt.Sprintf("%d", c.Replicas), c.Scenario,
			fmt.Sprintf("%d", c.Issued),
			fmt.Sprintf("%.1f%%", 100*c.Availability()),
			pct(c.Partial, c.Issued), pct(c.Failed, c.Issued),
			fmt.Sprintf("%.2f%%", 100*c.Completeness()),
			durMS(c.P50), durMS(c.P99),
			fmt.Sprintf("%d", c.BreakerTrips),
			fmt.Sprintf("%d", c.RebuiltRecords),
			fmt.Sprintf("%d", c.FinalEpoch), ap)
	}
	return t
}
