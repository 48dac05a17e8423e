package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"

	"decluster/internal/aggregate"
	"decluster/internal/exec"
	"decluster/internal/grid"
	"decluster/internal/obs"
	"decluster/internal/serve"
)

// TestCoverPlanIsMinimal: on healthy breakers an aggregate's plan is one
// leg per holder of a minimum cover — checked against brute force for
// every NewShardMap of up to 8 nodes and 3 replicas, every stride the
// constructor accepts and every subset of shards a query could meet, and
// for every such map of 9 to 12 nodes over all its shards at every turn —
// and a well-formed one: every piece in exactly one leg, the legs' slots
// tiling the outcomes, a merged leg naming only its lead, a one-piece leg
// its shard's holders with its lead first.
func TestCoverPlanIsMinimal(t *testing.T) {
	cases := 0
	for nodes := 1; nodes <= 12; nodes++ {
		g := grid.MustNew(nodes, 1)
		brk, err := serve.NewBreakers(serve.BreakerConfig{}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		for replicas := 1; replicas <= min(3, nodes); replicas++ {
			for stride := 0; stride < nodes; stride++ {
				sm, err := NewShardMap(g, nodes, replicas, stride)
				if err != nil {
					continue
				}
				if nodes > 8 {
					subs, err := sm.Decompose(g.FullRect())
					if err != nil {
						t.Fatal(err)
					}
					want := minCover(sm, subs)
					for turn := range nodes {
						checkCoverPlan(t, sm, subs, planCover(subs, sm, brk, 0, turn), want)
						cases++
					}
					continue
				}
				for set := 1; set < 1<<nodes; set++ {
					var subs []SubQuery
					for s := range nodes {
						if set>>s&1 == 1 {
							subs = append(subs, SubQuery{Shard: s, Rect: sm.Shard(s).Rect})
						}
					}
					legs := planCover(subs, sm, brk, 0, cases)
					checkCoverPlan(t, sm, subs, legs, minCover(sm, subs))
					cases++
				}
			}
		}
	}
	t.Logf("%d maps × shard subsets planned at the minimum", cases)
}

// TestCoverPlanPastBudget: a cover search that runs out of its budget —
// all 48 shards of a 48-node map with three replicas at stride 3 — plans
// the aggregate as a search's legs, one per piece, primary first.
func TestCoverPlanPastBudget(t *testing.T) {
	sm, err := NewShardMap(grid.MustNew(48, 1), 48, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	brk, err := serve.NewBreakers(serve.BreakerConfig{}, 48)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := sm.Decompose(sm.Grid().FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if legs, want := planCover(subs, sm, brk, 0, 0), planShards(subs, sm); !reflect.DeepEqual(legs, want) {
		t.Fatalf("past the budget: %d legs, want one per piece (%d)", len(legs), len(want))
	}
}

// minCover is the size of a minimum cover of subs' shards by brute force:
// the fewest members holding every one of them.
func minCover(sm *ShardMap, subs []SubQuery) int {
	best := sm.Nodes()
	for members := 1; members < 1<<sm.Nodes(); members++ {
		if size := bits.OnesCount(uint(members)); size < best && !slices.ContainsFunc(subs, func(sq SubQuery) bool {
			return !slices.ContainsFunc(sm.ShardMembers(sq.Shard), func(m int) bool { return members>>m&1 == 1 })
		}) {
			best = size
		}
	}
	return best
}

func checkCoverPlan(t *testing.T, sm *ShardMap, subs []SubQuery, legs []legPlan, want int) {
	t.Helper()
	name := func() string {
		return fmt.Sprintf("%s map of %d nodes, R %d", sm.PlacementName(), sm.Nodes(), sm.Replicas())
	}
	equal := func(a, b grid.Rect) bool { return slices.Equal(a.Lo, b.Lo) && slices.Equal(a.Hi, b.Hi) }
	if len(legs) != want {
		t.Fatalf("%s, shards %v: %d legs, a minimum cover is %d", name(), subs, len(legs), want)
	}
	slot, seen := 0, map[int]bool{}
	for _, l := range legs {
		if l.first != slot || len(l.subs) == 0 || len(l.rects) != len(l.subs) {
			t.Fatalf("%s: leg at slot %d of %d pieces, %d rects, expected slot %d", name(), l.first, len(l.subs), len(l.rects), slot)
		}
		slot += len(l.subs)
		lead := l.holders[0]
		for i, sq := range l.subs {
			if seen[sq.Shard] || !slices.Contains(sm.ShardMembers(sq.Shard), lead) || !equal(l.rects[i], sq.Rect) {
				t.Fatalf("%s: piece %+v planned twice, or on member %d that does not hold it", name(), sq, lead)
			}
			seen[sq.Shard] = true
		}
		hs := sm.ShardMembers(l.subs[0].Shard)
		if l.merged() && len(l.holders) != 1 || !l.merged() && !slices.Equal(l.holders, leadFirst(hs, lead)) {
			t.Fatalf("%s: leg of %d pieces has holders %v", name(), len(l.subs), l.holders)
		}
	}
	if slot != len(subs) {
		t.Fatalf("%s: legs answer %d of %d pieces", name(), slot, len(subs))
	}
}

// TestCoverRotatesLeads: on the healthy four-node chain, a full-grid
// aggregate is two merged legs, and the two equally small covers take
// turns — 64 aggregates, 128 legs, 32 ± 1 answered by each member.
func TestCoverRotatesLeads(t *testing.T) {
	sink := obs.NewSink()
	tc := startTestCluster(t, 4, 2, RouterConfig{Obs: sink})
	ctx := context.Background()
	for range 64 {
		res, err := tc.h.Router().Aggregate(ctx, aggregate.AggregateQuery{Rect: tc.g.FullRect(), Op: aggregate.OpCount})
		if err != nil || res.SubQueries != 4 || res.Retries != 0 || res.Count != int64(len(tc.recs)) {
			t.Fatalf("full-grid count: %v, %+v", err, res)
		}
	}
	reqs := sink.Registry().CounterFamily("cluster.node.requests", "node", 0)
	total := uint64(0)
	for m := range 4 {
		n := reqs.At(m).Value()
		total += n
		if n < 31 || n > 33 {
			t.Errorf("member %d answered %d legs, want 32 ± 1", m, n)
		}
	}
	if total != 128 {
		t.Errorf("64 full-grid aggregates took %d legs, want 128", total)
	}
}

// refAggregate answers q from the single-node reference file.
func refAggregate(t *testing.T, tc *testCluster, q aggregate.AggregateQuery) aggregate.AggregateResult {
	t.Helper()
	rs, err := tc.ref.CellRangeSearch(q.Rect)
	if err != nil {
		t.Fatal(err)
	}
	want := aggregate.AggregateResult{Op: q.Op, Attr: q.Attr, Buckets: q.Rect.Volume(), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, rec := range rs.Records {
		v := rec.Values[q.Attr]
		want.Count++
		want.Sum += v
		want.Min, want.Max = math.Min(want.Min, v), math.Max(want.Max, v)
	}
	return want
}

// askAll runs every op over the testQueries (the full grid first)
// through rt, checks each answer's defined fields against the reference
// file and returns the retries they took.
func askAll(t *testing.T, tc *testCluster, rt *Router) int {
	t.Helper()
	retries := 0
	for _, r := range testQueries(tc.g) {
		for _, op := range []aggregate.AggregateOp{aggregate.OpCount, aggregate.OpSum, aggregate.OpMin, aggregate.OpMax} {
			q := aggregate.AggregateQuery{Rect: r, Op: op, Attr: 1}
			got, err := rt.Aggregate(context.Background(), q)
			if err != nil {
				t.Fatalf("%v over %v: %v", op, r, err)
			}
			want := refAggregate(t, tc, q)
			if got.Op != op || got.Count != want.Count || got.Buckets != want.Buckets ||
				op == aggregate.OpSum && math.Abs(got.Sum-want.Sum) > 1e-9*math.Max(1, math.Abs(want.Sum)) ||
				want.Count > 0 && (op == aggregate.OpMin && got.Min != want.Min || op == aggregate.OpMax && got.Max != want.Max) {
				t.Fatalf("%v over %v: %+v, reference %+v", op, r, got.AggregateResult, want)
			}
			retries += got.Retries
		}
	}
	return retries
}

// TestMergedLegSplitsBack: a merged leg's holder crashed, partitioned or
// answering a tampered partial fails the leg, which splits back into one
// leg per piece, retried on the pieces' other holders: every answer is
// the reference's, and the retries show. The first full-grid aggregate's
// cover is members 0 and 2, so member 0 is asked for a merged leg.
func TestMergedLegSplitsBack(t *testing.T) {
	for _, fault := range []string{"crashed", "partitioned", "tampered"} {
		t.Run(fault, func(t *testing.T) {
			sink := obs.NewSink()
			tc := startTestCluster(t, 4, 2, RouterConfig{Obs: sink})
			rt := tc.h.Router()
			switch fault {
			case "crashed":
				tc.h.Faults().Crash(0)
			case "partitioned":
				tc.h.Faults().Partition(0)
			case "tampered":
				urls := tc.h.URLs()
				urls[0] = tamperAggregate(t, tc.h.Node(0).Handler(), func(a *aggregateResponse) { a.Buckets, a.Count = a.Buckets+1, a.Count+1 })
				var err error
				rt, err = NewRouter(RouterConfig{Map: tc.h.Map(), Endpoints: urls, Obs: sink, Retry: exec.RetryPolicy{MaxAttempts: 3}})
				if err != nil {
					t.Fatal(err)
				}
			}
			if retries := askAll(t, tc, rt); retries == 0 {
				t.Error("no piece was retried")
			}
			if n := sink.Registry().CounterFamily("cluster.node.errors", "node", 0).At(0).Value(); n == 0 {
				t.Error("member 0 never failed a leg: the merged leg under test was not sent")
			}
		})
	}
}

// TestMergedLegSplitsBackWithOneAttempt: with one attempt per piece, the
// pieces of a failed merged leg have none left of their own; they fail
// with the merged leg's cause — the tampered answer — and the partial
// names exactly the pieces that leg carried.
func TestMergedLegSplitsBackWithOneAttempt(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	urls := tc.h.URLs()
	urls[0] = tamperAggregate(t, tc.h.Node(0).Handler(), func(a *aggregateResponse) { a.Buckets++ })
	rt, err := NewRouter(RouterConfig{Map: tc.h.Map(), Endpoints: urls, Retry: exec.RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Aggregate(context.Background(), aggregate.AggregateQuery{Rect: tc.g.FullRect(), Op: aggregate.OpCount})
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Cause == nil || !strings.Contains(pe.Cause.Error(), "malformed answer") || strings.Contains(pe.Cause.Error(), "%!") {
		t.Fatalf("merged leg on a tampered member, one attempt: err = %v, want a partial caused by the malformed answer", err)
	}
	if len(pe.Shards) != 2 || slices.ContainsFunc(pe.Shards, func(s int) bool { return !slices.Contains(tc.h.Map().ShardMembers(s), 0) }) {
		t.Fatalf("partial names shards %v, want the two member 0 was asked for", pe.Shards)
	}
}

// TestMergedLegPartialOnlyWhenReplicaSetDown: with member 0 down a
// merged leg it leads fails, yet its pieces all find another holder, so
// no aggregate is refused; with members 0 and 1 down the partial error
// names exactly the one shard whose whole replica set is gone.
func TestMergedLegPartialOnlyWhenReplicaSetDown(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	tc.h.Faults().Crash(0)
	askAll(t, tc, tc.h.Router())
	tc.h.Faults().Crash(1)
	for range 4 { // every rotation of the cover
		_, err := tc.h.Router().Aggregate(context.Background(), aggregate.AggregateQuery{Rect: tc.g.FullRect(), Op: aggregate.OpSum, Attr: 1})
		var pe *PartialError
		if !errors.As(err, &pe) || !slices.Equal(pe.Shards, []int{0}) || len(pe.Uncovered) != 1 || pe.Uncovered[0].String() != tc.h.Map().Shard(0).Rect.String() {
			t.Fatalf("members 0 and 1 down: err = %v, want a partial naming shard 0 alone", err)
		}
	}
}

// TestMergedLegFollowsStaleEpoch: a router two epochs behind sends a
// merged leg at a dead epoch; the stale-epoch answer is adopted and the
// aggregate re-planned under the newest map, exactly — the stale leg is
// followed, not split back and retried.
func TestMergedLegFollowsStaleEpoch(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 1)
	ctx := context.Background()
	sink := obs.NewSink()
	rt, err := NewRouter(RouterConfig{Map: tc.h.Map(), Endpoints: tc.h.URLs(), Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	join, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(ctx, MigrateConfig{Plan: join, Endpoints: tc.h.URLs()}); err != nil {
		t.Fatal(err)
	}
	leave, err := PlanLeave(join.To, join.Member)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(ctx, MigrateConfig{Plan: leave, Endpoints: tc.h.URLs()}); err != nil {
		t.Fatal(err)
	}
	// Three shards on three members, two copies each: the full grid is one
	// merged leg and one single, under either map.
	q := aggregate.AggregateQuery{Rect: tc.g.FullRect(), Op: aggregate.OpSum, Attr: 1}
	res, err := rt.Aggregate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := refAggregate(t, tc, q)
	if res.Count != want.Count || math.Abs(res.Sum-want.Sum) > 1e-9*math.Max(1, math.Abs(want.Sum)) {
		t.Fatalf("sum after two membership changes: %+v, reference %+v", res.AggregateResult, want)
	}
	reg := sink.Registry()
	if res.EpochFollows != 1 || res.Epoch != leave.To.Epoch() || reg.Counter("cluster.router.retries").Value() != 0 {
		t.Fatalf("answered at epoch %d after %d follows and %d retries; want epoch %d, one follow and no retry",
			res.Epoch, res.EpochFollows, reg.Counter("cluster.router.retries").Value(), leave.To.Epoch())
	}
}
