package experiments

import (
	"strings"
	"testing"
	"time"

	"decluster/internal/obs"
)

// fastClusterChaos keeps the soak short enough for the unit-test suite
// while still spanning the full fault timeline (crash at ¼, restart at
// ¾, a rolling restart through the middle half).
func fastClusterChaos() ClusterChaosConfig {
	cfg := ClusterChaosConfig{
		GridSide:     8,
		Nodes:        4,
		DisksPerNode: 4,
		Records:      512,
		Clients:      4,
		Duration:     150 * time.Millisecond,
		BaseLatency:  100 * time.Microsecond,
	}
	if raceEnabled {
		// The race detector slows real HTTP exchanges well past the
		// latency-derived deadlines; widen both the budgets (scaled off
		// BaseLatency) and the soak so the fault window still fits.
		cfg.BaseLatency *= 5
		cfg.Duration *= 4
	}
	return cfg
}

func TestClusterChaosStructure(t *testing.T) {
	res, err := ClusterChaos(fastClusterChaos(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[string]bool{
		"node-loss": true, "rolling-restart": true,
		"partition": true, "join": true, "leave": true,
	}
	if want := 3 * len(scenarios); len(res.Cells) != want {
		t.Fatalf("want 3 placements × %d scenarios = %d cells, got %d", len(scenarios), want, len(res.Cells))
	}
	wantPlacements := []string{"none", "chain", "offset+2"}
	for i := range res.Cells {
		c := &res.Cells[i]
		if want := wantPlacements[i/len(scenarios)]; c.Placement != want {
			t.Errorf("cell %d placement = %q, want %q", i, c.Placement, want)
		}
		if !scenarios[c.Scenario] {
			t.Errorf("cell %d scenario = %q", i, c.Scenario)
		}
		if c.Issued == 0 {
			t.Errorf("cell %d issued no queries", i)
		}
		if got := c.Completed + c.Partial + c.Failed; got != c.Issued {
			t.Errorf("cell %d outcomes %d != issued %d", i, got, c.Issued)
		}
		if c.SubCovered > c.SubQueries {
			t.Errorf("cell %d covered %d of %d sub-queries", i, c.SubCovered, c.SubQueries)
		}
		if len(c.Events) == 0 {
			t.Errorf("cell %d recorded no chaos events", i)
		}
		if c.Replicas == 1 && c.RebuiltRecords != 0 {
			t.Errorf("cell %d rebuilt %d records without replication", i, c.RebuiltRecords)
		}
		switch c.Scenario {
		case "join", "leave":
			if len(c.MigrationLog) == 0 {
				t.Errorf("cell %d (%s/%s) recorded no migration outcome", i, c.Placement, c.Scenario)
			}
		default:
			if c.FinalEpoch != 1 {
				t.Errorf("cell %d (%s/%s) epoch = %d, want 1 (static membership)", i, c.Placement, c.Scenario, c.FinalEpoch)
			}
		}
	}
	if res.Seed != 7 {
		t.Errorf("result seed = %d, want 7", res.Seed)
	}
	tbl := res.Table().String()
	for _, want := range []string{"EN", "placement", "node-loss", "rolling-restart", "partition", "join", "leave", "epoch", "replay with -seed 7"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// TestClusterChaosReplicationKeepsCompleteness is the acceptance check:
// with node-level replication, losing, partitioning, adding, or
// removing a node must not cost coverage — zero partial results — while
// the unreplicated placement demonstrably degrades instead of failing
// outright.
func TestClusterChaosReplicationKeepsCompleteness(t *testing.T) {
	cfg := fastClusterChaos()
	cfg.Duration = 250 * time.Millisecond
	if raceEnabled {
		// The crash window must outlast a detector-slowed rebuild.
		cfg.Duration = 2 * time.Second
	}
	res, err := ClusterChaos(cfg, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Replicas > 1 {
			if c.Partial != 0 {
				t.Errorf("%s/%s: %d partial results with replication: %v", c.Placement, c.Scenario, c.Partial, c.PartialLog)
			}
			if c.Scenario == "node-loss" && c.RebuiltRecords == 0 {
				t.Errorf("%s/node-loss: rebuild restored no records", c.Placement)
			}
		}
	}
	// The unreplicated node-loss cell must show degradation of some
	// kind — partial results or failures — or the fault never landed.
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Replicas == 1 && c.Scenario == "node-loss" && c.Partial == 0 && c.Failed == 0 {
			t.Errorf("none/node-loss: no partials and no failures; fault schedule had no effect")
		}
	}
}

// TestClusterChaosMigrationAdvancesEpoch: join and leave cells must
// complete their online migration — the router ends the soak on the new
// epoch, with the move logged, on every placement.
func TestClusterChaosMigrationAdvancesEpoch(t *testing.T) {
	cfg := fastClusterChaos()
	cfg.Scenarios = []string{"join", "leave"}
	res, err := ClusterChaos(cfg, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("want 3 placements × 2 scenarios = 6 cells, got %d", len(res.Cells))
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.FinalEpoch != 2 {
			t.Errorf("%s/%s: final epoch = %d, want 2 (log: %v)", c.Placement, c.Scenario, c.FinalEpoch, c.MigrationLog)
		}
		if len(c.MigrationLog) != 1 || !strings.Contains(c.MigrationLog[0], "epoch 1 → 2") {
			t.Errorf("%s/%s: migration log = %v", c.Placement, c.Scenario, c.MigrationLog)
		}
		if c.Replicas > 1 && c.Partial != 0 {
			t.Errorf("%s/%s: %d partial results during online migration", c.Placement, c.Scenario, c.Partial)
		}
	}
}

// TestClusterChaosPartitionHeals: the partition cell must end with
// every breaker closed again — the victim's breaker opens while it is
// unreachable, and the half-open probe after the heal must re-admit it
// without any manual reset.
func TestClusterChaosPartitionHeals(t *testing.T) {
	cfg := fastClusterChaos()
	cfg.Scenarios = []string{"partition"}
	res, err := ClusterChaos(cfg, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sawTrip := false
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.BreakerTrips > 0 {
			sawTrip = true
		}
		if c.BreakersOpenAtEnd != 0 {
			t.Errorf("%s/partition: %d breakers still open after heal (trips %d)", c.Placement, c.BreakersOpenAtEnd, c.BreakerTrips)
		}
		if c.Replicas > 1 && c.Partial != 0 {
			t.Errorf("%s/partition: %d partial results with replication", c.Placement, c.Partial)
		}
	}
	if !sawTrip {
		t.Errorf("no cell tripped a breaker; the partition never bit")
	}
}

// TestClusterChaosDeterministicSchedules: the same seed must replay the
// same chaos timeline — fault schedules and migration plans alike.
func TestClusterChaosDeterministicSchedules(t *testing.T) {
	cfg := fastClusterChaos()
	cfg.Duration = 80 * time.Millisecond
	cfg.Scenarios = []string{"node-loss", "rolling-restart", "partition", "join", "leave"}
	a, err := ClusterChaos(cfg, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterChaos(cfg, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		ae, be := a.Cells[i].Events, b.Cells[i].Events
		if len(ae) != len(be) {
			t.Fatalf("cell %d: %d events vs %d on replay", i, len(ae), len(be))
		}
		for j := range ae {
			if ae[j] != be[j] {
				t.Errorf("cell %d event %d: %q vs %q", i, j, ae[j], be[j])
			}
		}
	}
}

// TestFlashCrowdAutopilotScales: the flash-crowd+autopilot cell must
// grow the cluster onto its standby exactly once — epoch 2, migration
// cost accounted, zero thrash — while every answer stays complete, and
// the static flash-crowd cell must end the soak still on epoch 1.
func TestFlashCrowdAutopilotScales(t *testing.T) {
	cfg := fastClusterChaos()
	cfg.Duration = 600 * time.Millisecond
	// Real service time must dominate race-mode scheduling overhead, or
	// node deadlines expire spuriously, breakers open, and the
	// breakers-open fuse (correctly) vetoes the join the test expects.
	cfg.BaseLatency = time.Millisecond
	if raceEnabled {
		cfg.Duration = 2 * time.Second
	}
	// A hair-trigger threshold makes the join deterministic at smoke
	// scale, and a gentle surge keeps the open-loop issuers from
	// drowning the race-slowed cluster outright; the committed EN run
	// exercises the realistic defaults.
	cfg.AutopilotP99 = time.Microsecond
	cfg.SpikeFactor = 1.5
	cfg.Scenarios = []string{"flash-crowd", "flash-crowd+autopilot"}
	res, err := ClusterChaos(cfg, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("want 3 placements × 2 scenarios = 6 cells, got %d", len(res.Cells))
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		sawSpike := false
		for _, e := range c.Events {
			if strings.Contains(e, "load-spike") {
				sawSpike = true
			}
		}
		if !sawSpike {
			t.Errorf("%s/%s: no load-spike event recorded: %v", c.Placement, c.Scenario, c.Events)
		}
		if c.Partial != 0 {
			t.Errorf("%s/%s: %d partial results without faults: %v", c.Placement, c.Scenario, c.Partial, c.PartialLog)
		}
		switch c.Scenario {
		case "flash-crowd":
			if c.FinalEpoch != 1 {
				t.Errorf("%s/flash-crowd: epoch = %d, want 1 (static membership)", c.Placement, c.FinalEpoch)
			}
		case "flash-crowd+autopilot":
			if c.AutopilotJoins != 1 || c.FinalEpoch != 2 {
				t.Errorf("%s/%s: joins = %d epoch = %d, want 1 join to epoch 2 (log: %v)",
					c.Placement, c.Scenario, c.AutopilotJoins, c.FinalEpoch, c.AutopilotLog)
			}
			if c.AutopilotThrash != 0 {
				t.Errorf("%s/%s: thrash = %d, want 0", c.Placement, c.Scenario, c.AutopilotThrash)
			}
			if c.AutopilotBuckets == 0 || c.AutopilotRecords == 0 {
				t.Errorf("%s/%s: migration cost unaccounted (buckets %d records %d)",
					c.Placement, c.Scenario, c.AutopilotBuckets, c.AutopilotRecords)
			}
			if len(c.AutopilotLog) == 0 {
				t.Errorf("%s/%s: empty decision log", c.Placement, c.Scenario)
			}
		}
	}
	tbl := res.Table().String()
	for _, want := range []string{"autopilot", "flash-crowd"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// TestAutopilotBlinkingPartitionZeroThrash: a partition flapping faster
// than the breaker cooldown is the adversarial schedule for a
// membership controller — overload pressure during every blink, calm
// in every gap. The fuses must veto while the partition is visible and
// the thrash counter must end at exactly zero.
func TestAutopilotBlinkingPartitionZeroThrash(t *testing.T) {
	cfg := fastClusterChaos()
	cfg.Duration = time.Second
	cfg.BaseLatency = time.Millisecond
	if raceEnabled {
		cfg.Duration = 2 * time.Second
	}
	// A hair-trigger threshold keeps the controller pressed against its
	// fuses for the whole soak: once the victim's breaker opens and the
	// router routes around the blink, windowed p99 recovers, and a
	// realistic threshold would only re-arm on timing races — exactly
	// the nondeterminism a smoke test cannot afford. Pressure on every
	// tick makes a fuse veto (breakers-open during blinks, envelope
	// after the join caps out) a certainty; the committed EN run keeps
	// the realistic default.
	cfg.AutopilotP99 = time.Microsecond
	cfg.Scenarios = []string{"blinking-partition"}
	res, err := ClusterChaos(cfg, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Fuse-by-fuse veto coverage is pinned deterministically by the
	// machine's table tests; at EN scale the count of vetoes is timing-
	// dependent (a race-slowed migration can eat the soak's tail), so
	// here the assertions are the discipline itself: pressed on every
	// tick by the hair trigger, the controller may grow onto its one
	// standby at most once and must never drain or reverse.
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.AutopilotThrash != 0 {
			t.Errorf("%s/blinking-partition: thrash = %d, want 0 (log: %v)", c.Placement, c.AutopilotThrash, c.AutopilotLog)
		}
		if c.AutopilotLeaves != 0 {
			t.Errorf("%s/blinking-partition: %d leaves under a blinking partition", c.Placement, c.AutopilotLeaves)
		}
		if c.AutopilotJoins > 1 {
			t.Errorf("%s/blinking-partition: %d joins; the envelope admits one standby", c.Placement, c.AutopilotJoins)
		}
		if c.FinalEpoch > 2 {
			t.Errorf("%s/blinking-partition: epoch %d; membership moved more than once", c.Placement, c.FinalEpoch)
		}
		if len(c.Events) == 0 {
			t.Errorf("%s/blinking-partition: no blink events recorded", c.Placement)
		}
	}
}

// TestClusterChaosSlowNode: a node slowed for the middle half of the soak
// costs no coverage — every cell answers 100% of its sub-queries — the
// replicated routers put it on probation instead of waiting out the hedge
// delay on every query, and after the ¾-run heal it leads its shards
// again: no member is left on probation.
func TestClusterChaosSlowNode(t *testing.T) {
	cfg := fastClusterChaos()
	cfg.Duration = 300 * time.Millisecond
	cfg.Scenarios = []string{"slow-node"}
	cfg.Obs = obs.NewSink()
	res, err := ClusterChaos(cfg, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Table().String())
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Completeness() != 1 || c.Partial != 0 || c.Failed != 0 {
			t.Errorf("%s/slow-node: %.2f%% complete, %d partial, %d failed: %v",
				c.Placement, 100*c.Completeness(), c.Partial, c.Failed, c.PartialLog)
		}
		if len(c.Events) != 2 || !strings.Contains(c.Events[0], "slow") || !strings.Contains(c.Events[1], "fast") {
			t.Errorf("%s/slow-node: events %v, want the slow-down and the heal", c.Placement, c.Events)
		}
		if c.ProbationAtEnd != 0 {
			t.Errorf("%s/slow-node: %d members still on probation after the heal", c.Placement, c.ProbationAtEnd)
		}
	}
	if n := cfg.Obs.Registry().Counter("cluster.router.probations").Value(); n == 0 {
		t.Error("no member went on probation; the slowed node never lost a hedge race")
	}
}
