package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/grid"
	"decluster/internal/obs"
	"decluster/internal/serve"
)

// straggler is the member the probation tests slow down: (51-1)·2ms =
// 100ms per request, well past its replicas even when they carry its
// share of eight concurrent searchers.
const (
	straggler     = 0
	stragglerSlow = 51
)

// startStragglerCluster boots four nodes, two replicas a shard, a 3ms
// hedge and the given breaker cooldown, slows the straggler and puts it
// on probation: one search of shard 0, which it leads, and its hedge
// overtakes it. A raw leg first gives the straggler its 100ms EWMA, so
// the hedge gate stays open whatever the replicas' latencies.
func startStragglerCluster(t *testing.T, cooldown time.Duration) (*testCluster, *obs.Sink) {
	t.Helper()
	sink := obs.NewSink()
	tc := startTestCluster(t, 4, 2, RouterConfig{
		HedgeAfter: 3 * time.Millisecond, NodeDeadline: 5 * time.Second, Obs: sink,
		Breaker: serve.BreakerConfig{Cooldown: cooldown},
	})
	if err := tc.h.Faults().SetNodeSlow(straggler, stragglerSlow); err != nil {
		t.Fatal(err)
	}
	rt, sm := tc.h.Router(), tc.h.Map()
	if got := sm.ShardMembers(0)[0]; got != straggler {
		t.Fatalf("shard 0 leads with member %d, want the straggler %d", got, straggler)
	}
	if err := routerOps[0].leg(context.Background(), rt, straggler, sm.Shard(0).Rect, sm.Epoch()); err != nil {
		t.Fatal(err)
	}
	res := searchExact(t, tc, sm.Shard(0).Rect)
	if res.HedgeWins == 0 || probations(sink) != 1 || rt.probation[straggler].Load() == 0 {
		t.Fatalf("first search: %d hedge wins, %d probations, stamp %d; the straggler was not overtaken",
			res.HedgeWins, probations(sink), rt.probation[straggler].Load())
	}
	return tc, sink
}

// searchExact runs one search and requires a complete answer equal to
// the single-node reference, order included.
func searchExact(t *testing.T, tc *testCluster, q grid.Rect) *Result {
	t.Helper()
	res, err := tc.h.Router().Search(context.Background(), q)
	if err != nil {
		t.Fatalf("search %v: %v", q, err)
	}
	if res.Covered != res.SubQueries || !equalInts(resultIDs(res), tc.refIDs(t, q)) {
		t.Fatalf("search %v: covered %d of %d, answer differs from the reference", q, res.Covered, res.SubQueries)
	}
	return res
}

func probations(sink *obs.Sink) uint64 {
	return sink.Registry().Counter("cluster.router.probations").Value()
}

// TestRouterProbationSteersAroundStraggler: once its hedge overtakes it,
// the straggler leads nothing but one probe per cooldown — its shards
// are answered by their replicas, the searches stop paying the hedge
// delay, eight concurrent searchers cannot multiply the probes, and a
// healed straggler leads again within a few cooldowns.
func TestRouterProbationSteersAroundStraggler(t *testing.T) {
	const cooldown = 25 * time.Millisecond
	tc, sink := startStragglerCluster(t, cooldown)
	rt, q := tc.h.Router(), tc.g.FullRect()
	reqs := sink.Registry().CounterFamily("cluster.node.requests", "node", 0).At(straggler)

	// Concurrent searches of the shard it leads: at most one probe a
	// cooldown, and only the probes hedge. Its co-holder leads every other
	// search, hedged by no one — the straggler is its only replica — so no
	// contention can put the co-holder on probation too, which would leave
	// the lead to rotation until the co-holder's own probe.
	if got := rt.OnProbation(); !slices.Equal(got, []int{straggler}) {
		t.Fatalf("on probation: %v, want only the straggler %d", got, straggler)
	}
	own := tc.h.Map().Shard(0).Rect
	var searches, hedges atomic.Int64
	before, start := reqs.Value(), time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := rt.Search(context.Background(), own)
				if err != nil || res.PerNode[straggler] != 0 {
					t.Errorf("concurrent search: %v, straggler answered %v", err, res != nil && res.PerNode[straggler] != 0)
					return
				}
				searches.Add(1)
				hedges.Add(int64(res.Hedges))
			}
		}()
	}
	time.Sleep(6 * cooldown)
	close(stop)
	wg.Wait()
	probes, window := reqs.Value()-before, time.Since(start)
	t.Logf("%d probes in %v under 8 searchers (cooldown %v); %d hedges over %d searches",
		probes, window, cooldown, hedges.Load(), searches.Load())
	if limit := uint64(window/cooldown) + 1; probes > limit {
		t.Errorf("%d requests reached the straggler in %v; one probe per %v cooldown allows %d", probes, window, cooldown, limit)
	}
	if h := hedges.Load(); uint64(h) > probes || 10*h > searches.Load() {
		t.Errorf("%d hedges over %d searches and %d probes: more than the probes hedge", h, searches.Load(), probes)
	}

	// Full-grid searches: the replicas answer every shard the straggler
	// holds.
	for i := 0; i < 20; i++ {
		if res := searchExact(t, tc, q); res.PerNode[straggler] != 0 {
			t.Fatalf("search %d: the straggler on probation answered %d sub-queries", i, res.PerNode[straggler])
		}
	}

	// Healed, the straggler's next probe wins its lead: it answers, and
	// is in good standing again.
	if err := tc.h.Faults().SetNodeSlow(straggler, 1); err != nil {
		t.Fatal(err)
	}
	healed := time.Now()
	for {
		res := searchExact(t, tc, q)
		if res.PerNode[straggler] > 0 && !slices.Contains(rt.OnProbation(), straggler) {
			break
		}
		if time.Since(healed) > 20*cooldown {
			t.Fatalf("the healed straggler still on probation after %v", time.Since(healed))
		}
	}
	t.Logf("healed straggler leads again after %v", time.Since(healed).Round(time.Millisecond))
}

// TestRouterProbationNeverStrandsAShard: probation decides who leads, never
// whether a sub-query is answered. With the straggler's co-holder gone —
// crashed, or behind an open breaker — the straggler answers its shard,
// every search is complete and exact, and its breaker never sees the
// probation: it stays closed, allowed and untripped.
func TestRouterProbationNeverStrandsAShard(t *testing.T) {
	for _, tt := range []struct {
		name string
		down func(tc *testCluster, member int)
	}{
		{"co-holder crashed", func(tc *testCluster, member int) { tc.h.Faults().Crash(member) }},
		{"co-holder breaker open", func(tc *testCluster, member int) {
			for i := 0; i < 5; i++ { // the default error threshold
				tc.h.Router().Breakers().Observe(member, 0, errors.New("injected"))
			}
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			// A cooldown longer than the test: probation lapses only by a won
			// lead, and an open breaker stays open.
			tc, _ := startStragglerCluster(t, time.Minute)
			brk := tc.h.Router().Breakers()
			coHolder := tc.h.Map().ShardMembers(0)[1]
			tt.down(tc, coHolder)
			trips := brk.Trips()

			answered := 0
			for _, q := range testQueries(tc.g) {
				answered += searchExact(t, tc, q).PerNode[straggler]
			}
			if answered == 0 {
				t.Error("the straggler never answered its shard although its co-holder is down")
			}
			h := brk.Snapshot()[straggler]
			if !brk.Allow(straggler) || slices.Contains(brk.Open(), straggler) || h.State != serve.BreakerClosed || h.Trips != 0 {
				t.Errorf("probation reached the straggler's breaker: %+v", h)
			}
			if tt.name == "co-holder breaker open" && brk.Trips() != trips {
				t.Errorf("breaker trips %d → %d with no member failing", trips, brk.Trips())
			}
		})
	}
}

// TestRouterHealthyPickReadsNoClock: with no member on probation, choosing
// a lead and a hedge target costs an atomic load per candidate — no clock
// read, no allocation. A member on probation costs the clock read that
// times its probe, and exactly one caller wins each probe.
func TestRouterHealthyPickReadsNoClock(t *testing.T) {
	sm, err := NewChainShardMap(grid.MustNew(8, 8), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Map: sm, Endpoints: []string{"http://n0", "http://n1", "http://n2", "http://n3"}, HedgeAfter: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	rt.now = func() int64 { reads++; return 1 << 40 }
	var shards [][]int
	for s := range sm.Shards() {
		shards = append(shards, sm.ShardMembers(s))
	}
	pick := func() {
		for _, c := range shards {
			if lead := rt.pickNode(c, 0); lead != c[0] {
				t.Fatalf("healthy shard %v led by %d", c, lead)
			}
			if backup, after := rt.hedgeCandidate(c, c[0]); backup != c[1] || after == 0 {
				t.Fatalf("healthy shard %v hedges to %d after %v", c, backup, after)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, pick); allocs != 0 || reads != 0 {
		t.Fatalf("healthy picks: %.0f allocs, %d clock reads; want none", allocs, reads)
	}

	// Member 0 leads shard 0 and backs up shard 3.
	lead, back := shards[0], shards[len(shards)-1]
	rt.probation[0].Store(1<<40 + 1) // due after now
	if got := rt.pickNode(lead, 0); got != lead[1] || reads != 1 {
		t.Fatalf("member on probation: lead %d after %d clock reads, want %d after 1", got, reads, lead[1])
	}
	if backup, after := rt.hedgeCandidate(back, back[0]); backup != 0 || after != 0 {
		t.Fatalf("timed hedge to a member on probation: backup %d after %v", backup, after)
	}
	rt.probation[lead[1]].Store(1<<40 + 1) // every holder of shard 0 on probation: 0 leads, timed hedge as ever
	if got, backup, after := rt.pickNode(lead, 0), lead[1], time.Duration(0); got != 0 {
		t.Fatalf("every holder on probation: lead %d, want rotation's 0", got)
	} else if backup, after = rt.hedgeCandidate(lead, got); backup != lead[1] || after == 0 {
		t.Fatalf("lead on probation: hedge to %d after %v, want a timed hedge to %d", backup, after, lead[1])
	}
	rt.probation[lead[1]].Store(0)
	rt.probation[0].Store(1) // due: the next first attempt probes it, the one after keeps away
	if a, b := rt.pickNode(lead, 0), rt.pickNode(lead, 0); a != 0 || b != lead[1] {
		t.Fatalf("due probation: leads %d then %d, want one probe of 0 then %d", a, b, lead[1])
	}
	rt.settleLead(0, true, false)
	if due := rt.probation[0].Load(); due != 0 {
		t.Fatalf("a won lead left the stamp at %d", due)
	}
}
