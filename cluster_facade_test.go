package decluster_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	decluster "decluster"
)

// TestClusterFacade drives the whole cluster surface through the root
// package: shard map construction, an in-process HTTP cluster, robust
// scatter/gather, typed degradation, and the wire error taxonomy.
func TestClusterFacade(t *testing.T) {
	g, err := decluster.UniformGrid(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := decluster.NewChainShardMap(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sm.PlacementName() != "chain" {
		t.Errorf("placement = %q", sm.PlacementName())
	}
	method, err := decluster.NewFX(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := decluster.UniformRecords{K: 2, Seed: 9}.Generate(400)

	h, err := decluster.StartClusterHarness(decluster.ClusterHarnessConfig{
		Map:     sm,
		Method:  method,
		Records: recs,
		Router: decluster.RouterConfig{
			NodeDeadline: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	res, err := h.Router().Search(context.Background(), g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 400 {
		t.Errorf("full-grid search returned %d of 400 records", len(res.Records))
	}
	if res.Covered != res.SubQueries {
		t.Errorf("covered %d of %d sub-queries", res.Covered, res.SubQueries)
	}

	// Typed degradation survives the facade: crash enough nodes that a
	// shard loses both copies, and the router must say exactly what is
	// missing.
	h.Faults().Crash(0)
	h.Faults().Crash(1)
	res, err = h.Router().Search(context.Background(), g.FullRect())
	if !errors.Is(err, decluster.ErrPartial) {
		t.Fatalf("want ErrPartial with both replicas down, got %v", err)
	}
	var pe *decluster.PartialError
	if !errors.As(err, &pe) || len(pe.Uncovered) == 0 {
		t.Fatalf("partial error carries no uncovered rects: %v", err)
	}
	if res == nil || len(res.Records) == 0 {
		t.Error("partial result should still carry the gathered records")
	}

	// Wire taxonomy round-trips through the facade.
	code := decluster.ClusterErrorCode(err)
	if code != "partial" {
		t.Errorf("ClusterErrorCode = %q", code)
	}
	if !errors.Is(decluster.DecodeClusterError(code, "x"), decluster.ErrPartial) {
		t.Error("decoded wire error lost its sentinel")
	}
}

// TestClusterFacadeMigration drives the elastic surface through the
// root package: plan a join, execute it online against a harness with
// a standby, and watch the router land on the new epoch.
func TestClusterFacadeMigration(t *testing.T) {
	g, err := decluster.UniformGrid(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := decluster.NewChainShardMap(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	method, err := decluster.NewFX(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := decluster.UniformRecords{K: 2, Seed: 9}.Generate(400)
	h, err := decluster.StartClusterHarness(decluster.ClusterHarnessConfig{
		Map:      sm,
		Method:   method,
		Records:  recs,
		Standbys: 1,
		Router:   decluster.RouterConfig{NodeDeadline: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	plan, err := decluster.PlanClusterJoin(sm)
	if err != nil {
		t.Fatal(err)
	}
	if plan.To.Epoch() != sm.Epoch()+1 || len(plan.Moves) == 0 {
		t.Fatalf("join plan: epoch %d→%d, %d moves", sm.Epoch(), plan.To.Epoch(), len(plan.Moves))
	}
	var events []decluster.ClusterMigrateEvent
	st, err := decluster.MigrateCluster(context.Background(), decluster.ClusterMigrateConfig{
		Plan:      plan,
		Endpoints: h.URLs(),
		Router:    h.Router(),
		Progress:  func(ev decluster.ClusterMigrateEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Buckets == 0 || st.Aborted {
		t.Fatalf("migration stats: %+v", st)
	}
	if len(events) == 0 || events[len(events)-1].Phase != "adopt" {
		t.Fatalf("progress events end with %v", events)
	}
	if got := h.Router().Epoch(); got != plan.To.Epoch() {
		t.Errorf("router epoch after adopt = %d, want %d", got, plan.To.Epoch())
	}
	res, err := h.Router().Search(context.Background(), g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 400 {
		t.Errorf("post-join search returned %d of 400 records", len(res.Records))
	}

	// The elastic error taxonomy is visible at the root.
	if !errors.Is(&decluster.StaleEpochError{RequestEpoch: 1, NodeEpoch: 2}, decluster.ErrStaleEpoch) {
		t.Error("StaleEpochError does not match ErrStaleEpoch")
	}
	if decluster.ErrNoDonor == nil {
		t.Error("ErrNoDonor is nil")
	}
}

// TestClusterFacadeNodeFaultSchedules checks the node-level fault API
// exposed at the root: deterministic schedules and injector state.
func TestClusterFacadeNodeFaultSchedules(t *testing.T) {
	a := decluster.NodeLossSchedule(5, 4, time.Second)
	b := decluster.NodeLossSchedule(5, 4, time.Second)
	if a.String() != b.String() {
		t.Errorf("same seed, different schedules:\n%s\n%s", a, b)
	}
	in := decluster.NewNodeInjector()
	in.Crash(2)
	if got := in.CrashedNodes(); len(got) != 1 || got[0] != 2 {
		t.Errorf("CrashedNodes = %v", got)
	}
	in.Restart(2)
	if got := in.CrashedNodes(); len(got) != 0 {
		t.Errorf("CrashedNodes after restart = %v", got)
	}
}

// TestClusterRebuildAnswersInOrder: a node rebuilt from its peers holds
// each bucket's records in the order its donors did, so searches the
// rebuilt node answers equal the single-file answer, order included.
func TestClusterRebuildAnswersInOrder(t *testing.T) {
	g, err := decluster.UniformGrid(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := decluster.NewChainShardMap(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	method, err := decluster.NewHCAM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := decluster.UniformRecords{K: 2, Seed: 27}.Generate(3000)
	h, err := decluster.StartClusterHarness(decluster.ClusterHarnessConfig{Map: sm, Method: method, Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.Faults().Crash(1)
	if _, err := decluster.RebuildClusterNode(context.Background(), decluster.NodeRebuildConfig{Map: sm, Endpoints: h.URLs()}, h.Node(1)); err != nil {
		t.Fatal(err)
	}
	h.Faults().Restart(1)
	for _, q := range []decluster.Rect{
		g.FullRect(),
		g.MustRect(decluster.Coord{3, 5}, decluster.Coord{12, 14}),
		g.MustRect(decluster.Coord{0, 9}, decluster.Coord{15, 9}),
	} {
		res, err := h.Router().Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.PerNode[1] == 0 {
			t.Fatalf("query %v: the rebuilt node answered nothing", q)
		}
		sameAnswer(t, fmt.Sprintf("query %v after rebuild", q), res.Records, singleFileAnswer(t, method, recs, q))
	}
}
