package cluster

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestStandbyHealthProbe is the capacity-discovery regression test: a
// node booted outside the map answers "standby" with no shards, a
// serving member answers "serving" with its shard list, and both
// report live backpressure fields.
func TestStandbyHealthProbe(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	standby, err := ProbeHealth(ctx, nil, tc.h.URL(3))
	if err != nil {
		t.Fatalf("standby probe: %v", err)
	}
	if !standby.Standby() || standby.State != "standby" {
		t.Errorf("standby state %q, want standby", standby.State)
	}
	if standby.Node != 3 || len(standby.Shards) != 0 || standby.Records != 0 {
		t.Errorf("standby health %+v, want empty member 3", standby)
	}

	serving, err := ProbeHealth(ctx, nil, tc.h.URL(0))
	if err != nil {
		t.Fatalf("serving probe: %v", err)
	}
	if serving.Standby() || serving.State != "serving" {
		t.Errorf("serving state %q", serving.State)
	}
	if len(serving.Shards) == 0 || serving.Records == 0 {
		t.Errorf("serving member reports no data: %+v", serving)
	}
	if serving.Epoch != 1 {
		t.Errorf("serving epoch %d, want 1", serving.Epoch)
	}

	// After a join adopts the standby, the same probe flips to serving.
	join, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(context.Background(), MigrateConfig{
		Plan: join, Endpoints: tc.h.URLs(), Router: tc.h.Router(),
	}); err != nil {
		t.Fatal(err)
	}
	adopted, err := ProbeHealth(ctx, nil, tc.h.URL(3))
	if err != nil {
		t.Fatalf("post-join probe: %v", err)
	}
	if adopted.Standby() || len(adopted.Shards) == 0 {
		t.Errorf("joined member still reports standby: %+v", adopted)
	}
}

// TestHealthProbeCarriesLatency pins the off-box latency signal: after
// a node serves queries, its health reply carries a non-empty latency
// histogram with a sane window percentile, so a standalone controller
// (whose own router serves nothing) can still see serving latency by
// diffing successive probes. Copier reads are not serving latency: a
// join and a rebuild with no foreground traffic leave every member's
// histogram as it was.
func TestHealthProbeCarriesLatency(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	before, err := ProbeHealth(ctx, nil, tc.h.URL(0))
	if err != nil {
		t.Fatalf("probe before: %v", err)
	}

	g := tc.h.Map().Grid()
	hi := make([]int, g.K())
	for i, d := range g.Dims() {
		hi[i] = d - 1
	}
	r := g.MustRect(make([]int, g.K()), hi)
	for i := 0; i < 3; i++ {
		if _, err := tc.h.Router().Search(ctx, r); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}

	after, err := ProbeHealth(ctx, nil, tc.h.URL(0))
	if err != nil {
		t.Fatalf("probe after: %v", err)
	}
	win := after.Latency.Sub(before.Latency)
	if win.Count == 0 {
		t.Fatalf("health latency window empty after %d full-grid queries: before %+v after %+v",
			3, before.Latency, after.Latency)
	}
	if p99 := win.Percentile(99); p99 <= 0 {
		t.Errorf("windowed p99 %v, want > 0", p99)
	}

	served := func() []uint64 {
		counts := make([]uint64, tc.h.Nodes())
		for m := range counts {
			h, err := ProbeHealth(ctx, nil, tc.h.URL(m))
			if err != nil {
				t.Fatalf("probe member %d: %v", m, err)
			}
			counts[m] = h.Latency.Count
		}
		return counts
	}
	was := served()
	join, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(ctx, MigrateConfig{Plan: join, Endpoints: tc.h.URLs(), Router: tc.h.Router()}); err != nil {
		t.Fatalf("join: %v", err)
	}
	tc.h.Faults().Crash(0)
	if _, err := RebuildNode(ctx, RebuildConfig{Map: tc.h.Map(), Endpoints: tc.h.URLs()}, tc.h.Node(0)); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	tc.h.Faults().Restart(0)
	if now := served(); !slices.Equal(now, was) {
		t.Fatalf("query latency counts per member %v after a join and a rebuild, %v before", now, was)
	}
}
