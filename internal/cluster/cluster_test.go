package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/serve"
)

// testCluster builds a harness plus the single-node reference file the
// differential tests compare against.
type testCluster struct {
	h    *Harness
	ref  *gridfile.File
	g    *grid.Grid
	recs []datagen.Record
}

func startTestCluster(t *testing.T, nodes, replicas int, router RouterConfig) *testCluster {
	t.Helper()
	g := grid.MustNew(8, 8)
	m, err := alloc.NewFX(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := datagen.Uniform{K: 2, Seed: 42}.Generate(1500)
	sm, err := NewChainShardMap(g, nodes, replicas)
	if err != nil {
		t.Fatal(err)
	}
	if router.Retry.MaxAttempts == 0 {
		router.Retry = exec.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	}
	if router.NodeDeadline == 0 {
		router.NodeDeadline = 300 * time.Millisecond
	}
	h, err := StartHarness(HarnessConfig{
		Map:     sm,
		Method:  m,
		Records: recs,
		Router:  router,
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
	return &testCluster{h: h, ref: ref, g: g, recs: recs}
}

// refIDs returns the reference answer for q: record IDs from the
// single-node grid file, in its order — the order a cluster answer keeps.
func (tc *testCluster) refIDs(t *testing.T, q grid.Rect) []int {
	t.Helper()
	rs, err := tc.ref.CellRangeSearch(q)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(rs.Records))
	for i, r := range rs.Records {
		ids[i] = r.ID
	}
	return ids
}

func resultIDs(res *Result) []int {
	ids := make([]int, len(res.Records))
	for i, r := range res.Records {
		ids[i] = r.ID
	}
	return ids
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testQueries is a deterministic sweep of query rectangles of varied
// shapes and positions.
func testQueries(g *grid.Grid) []grid.Rect {
	return []grid.Rect{
		g.FullRect(),
		g.MustRect(grid.Coord{0, 0}, grid.Coord{0, 0}),
		g.MustRect(grid.Coord{0, 0}, grid.Coord{7, 0}),
		g.MustRect(grid.Coord{3, 2}, grid.Coord{6, 5}),
		g.MustRect(grid.Coord{0, 6}, grid.Coord{7, 7}),
		g.MustRect(grid.Coord{5, 5}, grid.Coord{7, 7}),
	}
}

// TestClusterDifferentialHealthy proves the cluster answers every query
// bucket-for-bucket identically to single-node execution.
func TestClusterDifferentialHealthy(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	for _, q := range testQueries(tc.g) {
		res, err := tc.h.Router().Search(context.Background(), q)
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if got, want := resultIDs(res), tc.refIDs(t, q); !equalInts(got, want) {
			t.Fatalf("query %v: cluster returned %d records, reference %d", q, len(got), len(want))
		}
		if res.Covered != res.SubQueries {
			t.Fatalf("query %v: covered %d of %d sub-queries with no faults", q, res.Covered, res.SubQueries)
		}
	}
}

// TestClusterDifferentialDegraded kills one node and proves the answers
// stay exactly identical: every shard still has a live replica.
func TestClusterDifferentialDegraded(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	tc.h.Faults().Crash(1)
	for _, q := range testQueries(tc.g) {
		res, err := tc.h.Router().Search(context.Background(), q)
		if err != nil {
			t.Fatalf("query %v with node 1 down: %v", q, err)
		}
		if got, want := resultIDs(res), tc.refIDs(t, q); !equalInts(got, want) {
			t.Fatalf("query %v degraded: %d records, reference %d", q, len(got), len(want))
		}
		if res.PerNode[1] != 0 {
			t.Fatalf("query %v: crashed node 1 answered %d sub-queries", q, res.PerNode[1])
		}
	}
}

// TestClusterPartialResult removes replication, kills a node, and
// checks the typed partial result names exactly the lost coverage.
func TestClusterPartialResult(t *testing.T) {
	tc := startTestCluster(t, 4, 1, RouterConfig{})
	tc.h.Faults().Crash(2)
	q := tc.g.FullRect()
	res, err := tc.h.Router().Search(context.Background(), q)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T is not *PartialError", err)
	}
	lost := tc.h.Map().Shard(2).Rect
	if len(pe.Shards) != 1 || pe.Shards[0] != 2 {
		t.Fatalf("uncovered shards = %v, want [2]", pe.Shards)
	}
	if pe.Uncovered[0].String() != lost.String() {
		t.Fatalf("uncovered rect = %v, want shard 2's rect %v", pe.Uncovered[0], lost)
	}
	// The records that were gathered are exactly the reference answer
	// minus the lost shard's records.
	want := map[int]bool{}
	for _, id := range tc.refIDs(t, q) {
		want[id] = true
	}
	lostRS, err2 := tc.ref.CellRangeSearch(lost)
	if err2 != nil {
		t.Fatal(err2)
	}
	for _, r := range lostRS.Records {
		delete(want, r.ID)
	}
	got := resultIDs(res)
	if len(got) != len(want) {
		t.Fatalf("partial result has %d records, want %d", len(got), len(want))
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("partial result contains unexpected record %d", id)
		}
	}
	// Healing the node restores full coverage.
	tc.h.Faults().Restart(2)
	res, err = tc.h.Router().Search(context.Background(), q)
	if err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if !equalInts(resultIDs(res), tc.refIDs(t, q)) {
		t.Fatal("after restart the answer is still not exact")
	}
}

// TestRouterHedgeSuppressedUnderSaturation checks the router stops
// hedging once every replica of a shard reports latency worse than the
// hedge delay: a backup that cannot beat the straggler only deepens
// the saturation that made the primary slow, so the extra leg must not
// launch.
func TestRouterHedgeSuppressedUnderSaturation(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{
		HedgeAfter:   5 * time.Millisecond,
		NodeDeadline: 5 * time.Second,
	})
	for n := 0; n < 4; n++ {
		if err := tc.h.Faults().SetNodeSlow(n, 11); err != nil { // (11-1)·2ms = 20ms ≫ 5ms hedge delay
			t.Fatal(err)
		}
	}
	q := tc.g.FullRect()
	// Warm-up: EWMAs start cold at zero, so hedging is still allowed —
	// and every leg that answers records a ~20ms sample. A leg that loses
	// its hedge race is cancelled without leaving one, so a single search
	// does not always reach all four nodes. A lead so overtaken goes on
	// probation instead: the next searches lead with its replica until a
	// probe, one breaker cooldown on, lets it lead — and answer — again.
	for warm := 0; ; warm++ {
		if _, err := tc.h.Router().Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		cold := 0
		for n := 0; n < 4; n++ {
			if tc.h.Router().Breakers().EWMALatency(n) <= 5*time.Millisecond {
				cold++
			}
		}
		if cold == 0 {
			break
		}
		if warm == 10 {
			t.Fatalf("%d nodes still report a cold EWMA after %d searches", cold, warm+1)
		}
	}
	res, err := tc.h.Router().Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(resultIDs(res), tc.refIDs(t, q)) {
		t.Fatal("answer differs from reference with hedging suppressed")
	}
	if res.Hedges != 0 {
		t.Fatalf("%d hedge legs launched although every replica is slower than the hedge delay", res.Hedges)
	}
}

// TestRouterBreakerTripsOnCrashedNode checks repeated failures open the
// node breaker so later queries stop targeting the dead node first.
func TestRouterBreakerTripsOnCrashedNode(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{
		Breaker: serve.BreakerConfig{ErrorThreshold: 3, Cooldown: time.Minute},
	})
	tc.h.Faults().Crash(3)
	for i := 0; i < 5; i++ {
		if _, err := tc.h.Router().Search(context.Background(), tc.g.FullRect()); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	open := tc.h.Router().Breakers().Open()
	if len(open) != 1 || open[0] != 3 {
		t.Fatalf("open breakers = %v, want [3]", open)
	}
}

// TestRebuildNodeFromPeers crashes a node, wipes and rebuilds it from
// its peers' replicas over HTTP, and proves the restored node serves
// exact answers again.
func TestRebuildNodeFromPeers(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	target := tc.h.Node(1)
	wantRecords := target.Records()
	if wantRecords == 0 {
		t.Fatal("target node started empty")
	}
	tc.h.Faults().Crash(1)

	st, err := RebuildNode(context.Background(), RebuildConfig{
		Map:       tc.h.Map(),
		Endpoints: tc.h.URLs(),
	}, target)
	if err != nil {
		t.Fatal(err)
	}
	if target.Records() != wantRecords {
		t.Fatalf("rebuilt node holds %d records, want %d", target.Records(), wantRecords)
	}
	if st.Shards != 2 || st.Records != wantRecords || st.Buckets == 0 {
		t.Fatalf("rebuild stats = %+v", st)
	}
	tc.h.Faults().Restart(1)

	// The restored node must serve exact answers.
	for _, q := range testQueries(tc.g) {
		res, err := tc.h.Router().Search(context.Background(), q)
		if err != nil {
			t.Fatalf("query %v after rebuild: %v", q, err)
		}
		if !equalInts(resultIDs(res), tc.refIDs(t, q)) {
			t.Fatalf("query %v after rebuild differs from reference", q)
		}
	}
}

// TestRebuildFailsWithoutReplicas proves data loss is reported, not
// papered over: with one copy per shard a dead node cannot be rebuilt.
func TestRebuildFailsWithoutReplicas(t *testing.T) {
	tc := startTestCluster(t, 4, 1, RouterConfig{})
	tc.h.Faults().Crash(1)
	_, err := RebuildNode(context.Background(), RebuildConfig{
		Map:       tc.h.Map(),
		Endpoints: tc.h.URLs(),
	}, tc.h.Node(1))
	if !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("err = %v, want fault.ErrUnavailable", err)
	}
}

// TestNodeRejectsForeignRects checks a node refuses rects outside its
// hosted shards with the typed not_hosted error over the wire.
func TestNodeRejectsForeignRects(t *testing.T) {
	tc := startTestCluster(t, 4, 1, RouterConfig{})
	// Build a router whose endpoint list routes shard 0's sub-queries
	// to node 3 (which does not host shard 0 — replicas=1).
	urls := tc.h.URLs()
	urls[0], urls[3] = urls[3], urls[0]
	rt, err := NewRouter(RouterConfig{
		Map:       tc.h.Map(),
		Endpoints: urls,
		Retry:     exec.RetryPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Search(context.Background(), tc.h.Map().Shard(0).Rect)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("misrouted query err = %v, want partial", err)
	}
	if res == nil || res.Covered != 0 {
		t.Fatalf("misrouted query res = %+v", res)
	}
}
