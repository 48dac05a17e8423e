package autopilot

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/cluster"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
)

// testRig is a live cluster with a single-node oracle beside it.
type testRig struct {
	h    *cluster.Harness
	ref  *gridfile.File
	g    *grid.Grid
	sink *obs.Sink
}

func startRig(t *testing.T, nodes, replicas, standbys int) *testRig {
	t.Helper()
	g := grid.MustNew(8, 8)
	m, err := alloc.NewFX(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := datagen.Uniform{K: 2, Seed: 42}.Generate(1500)
	sm, err := cluster.NewChainShardMap(g, nodes, replicas)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	h, err := cluster.StartHarness(cluster.HarnessConfig{
		Map:      sm,
		Method:   m,
		Records:  recs,
		Standbys: standbys,
		Obs:      sink,
		Router: cluster.RouterConfig{
			Retry:        exec.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
			NodeDeadline: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	ref, err := gridfile.New(gridfile.Config{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	return &testRig{h: h, ref: ref, g: g, sink: sink}
}

// startQueriers launches clients that continuously compare cluster
// answers to the single-node oracle until done closes.
func startQueriers(rig *testRig, done chan struct{}) (wait func() []error) {
	queries := []grid.Rect{
		{Lo: grid.Coord{0, 0}, Hi: grid.Coord{7, 7}},
		{Lo: grid.Coord{1, 2}, Hi: grid.Coord{4, 6}},
		{Lo: grid.Coord{5, 0}, Hi: grid.Coord{7, 3}},
		{Lo: grid.Coord{2, 2}, Hi: grid.Coord{2, 2}},
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	want := make([][]int, len(queries))
	for i, q := range queries {
		rs, err := rig.ref.CellRangeSearch(q)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ids := make([]int, len(rs.Records))
		for j, r := range rs.Records {
			ids[j] = r.ID
		}
		sort.Ints(ids)
		want[i] = ids
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qi := i % len(queries)
				res, err := rig.h.Router().Search(context.Background(), queries[qi])
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				var got []int
				for _, r := range res.Records {
					got = append(got, r.ID)
				}
				sort.Ints(got)
				if len(got) != len(want[qi]) {
					mu.Lock()
					errs = append(errs, errors.New("answer diverged from single-node oracle under autopilot"))
					mu.Unlock()
					return
				}
				for j := range got {
					if got[j] != want[qi][j] {
						mu.Lock()
						errs = append(errs, errors.New("answer diverged from single-node oracle under autopilot"))
						mu.Unlock()
						return
					}
				}
			}
		}()
	}
	return func() []error { wg.Wait(); return errs }
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAutopilotDifferential proves the tentpole's safety property end
// to end: an autopilot-triggered join and a subsequent autopilot-
// triggered leave, with clients comparing every answer to a static
// single-node oracle throughout — bit-identical or the test fails.
// Run under -race in CI.
func TestAutopilotDifferential(t *testing.T) {
	rig := startRig(t, 3, 2, 1)
	done := make(chan struct{})
	wait := startQueriers(rig, done)

	// Phase 1: a hair-trigger scale-up policy — any observed traffic
	// reads as overload — grows the map onto the standby.
	up, err := New(Config{
		Router:    rig.h.Router(),
		Endpoints: rig.h.URLs(),
		Obs:       rig.sink,
		Tick:      20 * time.Millisecond,
		Policy: Policy{
			ScaleUpP99:   time.Nanosecond,
			HysteresisUp: 2,
			CoolDown:     50 * time.Millisecond,
			MinNodes:     3,
			MaxNodes:     4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	up.Start()
	waitFor(t, 10*time.Second, "autopilot join", func() bool { return up.Stats().Joins == 1 })
	up.Stop()
	if got := rig.h.Router().Epoch(); got != 2 {
		t.Fatalf("epoch after autopilot join = %d, want 2", got)
	}
	if st := up.Stats(); st.Aborts != 0 || st.Thrash != 0 || st.Buckets == 0 {
		t.Fatalf("join controller stats %+v", st)
	}

	// Phase 2: a drain-only policy — overload triggers disabled, any
	// queue-empty tick reads as idle — retires the joiner again.
	down, err := New(Config{
		Router:    rig.h.Router(),
		Endpoints: rig.h.URLs(),
		Obs:       rig.sink,
		Tick:      20 * time.Millisecond,
		Policy: Policy{
			ScaleDownP99:   time.Hour,
			HysteresisDown: 2,
			CoolDown:       50 * time.Millisecond,
			MinNodes:       3,
			MaxNodes:       4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	down.Start()
	waitFor(t, 10*time.Second, "autopilot leave", func() bool { return down.Stats().Leaves == 1 })
	down.Stop()
	if got := rig.h.Router().Epoch(); got != 3 {
		t.Fatalf("epoch after autopilot leave = %d, want 3", got)
	}

	close(done)
	for _, err := range wait() {
		t.Errorf("querier: %v", err)
	}

	// The drained member's node answers "standby" again — back in the
	// discovery pool for the next join.
	joiner := 3
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	h, err := cluster.ProbeHealth(ctx, nil, rig.h.URL(joiner))
	if err != nil {
		t.Fatalf("probe of drained member: %v", err)
	}
	if !h.Standby() {
		t.Errorf("drained member state %q, want standby", h.State)
	}
	if len(up.DecisionLog()) == 0 || len(down.DecisionLog()) == 0 {
		t.Error("decision logs empty")
	}
}

// TestAutopilotFuseHoldsUnderPartition cuts one member off mid-run and
// asserts a hair-trigger controller never migrates while the partition
// is visible — the fuse, not luck.
func TestAutopilotFuseHoldsUnderPartition(t *testing.T) {
	rig := startRig(t, 3, 2, 1)
	rig.h.Faults().Partition(1)
	c, err := New(Config{
		Router:    rig.h.Router(),
		Endpoints: rig.h.URLs(),
		Obs:       rig.sink,
		Tick:      20 * time.Millisecond,
		Policy: Policy{
			ScaleUpP99:   time.Nanosecond,
			HysteresisUp: 2,
			MinNodes:     3,
			MaxNodes:     4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// Feed the controller traffic so overload classification is real;
	// errors are expected while the partition stands.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		_, _ = rig.h.Router().Search(ctx, grid.Rect{Lo: grid.Coord{0, 0}, Hi: grid.Coord{7, 7}})
		cancel()
	}
	c.Stop()
	st := c.Stats()
	if st.Joins != 0 || st.Leaves != 0 {
		t.Fatalf("controller migrated during a partition: %+v", st)
	}
	if st.Vetoes == 0 {
		t.Errorf("expected fuse vetoes while partitioned, got none (stats %+v)", st)
	}
	if rig.h.Router().Epoch() != 1 {
		t.Errorf("epoch moved during partition: %d", rig.h.Router().Epoch())
	}
}

// TestNewRejectsBadMigrateRate: a MigrateRate the repair throttle
// refuses is refused by New, not run unthrottled at the first migration.
func TestNewRejectsBadMigrateRate(t *testing.T) {
	sm, err := cluster.NewChainShardMap(grid.MustNew(8, 8), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eps := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Map: sm, Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := New(Config{Router: rt, Endpoints: eps, MigrateRate: rate}); err == nil {
			t.Errorf("MigrateRate %v accepted", rate)
		}
	}
	for _, rate := range []float64{0, 800} {
		if _, err := New(Config{Router: rt, Endpoints: eps, MigrateRate: rate}); err != nil {
			t.Errorf("MigrateRate %v: %v", rate, err)
		}
	}
}
