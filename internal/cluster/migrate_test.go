package cluster

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/repair"
)

// startElasticCluster is startTestCluster plus standbys: the empty
// members a join migration brings in.
func startElasticCluster(t *testing.T, nodes, replicas, standbys int) *testCluster {
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
	h, err := StartHarness(HarnessConfig{
		Map:      sm,
		Method:   m,
		Records:  recs,
		Standbys: standbys,
		Router: RouterConfig{
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
	return &testCluster{h: h, ref: ref, g: g, recs: recs}
}

// verifyPlan asserts a plan's exactness invariants against its own From
// and To maps: every (bucket, destination) pair the To map requires and
// From does not provide is covered by exactly one move, no move copies
// anything else, every donor actually holds the buckets it donates, and
// Buckets() equals the need set — plus the bucket-list shape: ascending
// buckets, one donor set (one From shard) per move, at most one move per
// destination and donor set.
func verifyPlan(t *testing.T, p *MigrationPlan) {
	t.Helper()
	from, to, g := p.From, p.To, p.To.Grid()
	if to.Epoch() != from.Epoch()+1 {
		t.Fatalf("plan epochs %d → %d, want +1", from.Epoch(), to.Epoch())
	}
	type pair struct{ dest, bucket int }
	need := map[pair]bool{}
	for _, dest := range to.Members() {
		for b := 0; b < g.Buckets(); b++ {
			if to.Holds(dest, b) && !from.Holds(dest, b) {
				need[pair{dest, b}] = true
			}
		}
	}
	got := map[pair]int{}
	seen := map[pair]bool{} // (dest, From shard) already has a move
	for _, mv := range p.Moves {
		if len(mv.Sources) == 0 || len(mv.Buckets) == 0 {
			t.Fatalf("move %+v has no donors or no buckets", mv)
		}
		if !sort.IntsAreSorted(mv.Buckets) {
			t.Fatalf("move %+v: buckets not ascending", mv)
		}
		fs := from.ShardOf(g.Delinearize(mv.Buckets[0], nil))
		if seen[pair{mv.Dest, fs}] {
			t.Fatalf("two moves carry From shard %d to member %d", fs, mv.Dest)
		}
		seen[pair{mv.Dest, fs}] = true
		for _, b := range mv.Buckets {
			got[pair{mv.Dest, b}]++
			if s := from.ShardOf(g.Delinearize(b, nil)); s != fs {
				t.Fatalf("move %+v spans From shards %d and %d: two donor sets", mv, fs, s)
			}
			for _, src := range mv.Sources {
				if src == mv.Dest {
					t.Fatalf("move %+v donates to itself", mv)
				}
				if !from.Holds(src, b) {
					t.Fatalf("move %+v: donor %d does not hold bucket %d under From", mv, src, b)
				}
			}
		}
	}
	for pr := range need {
		if got[pr] != 1 {
			t.Fatalf("pair (dest %d, bucket %d) covered %d times, want exactly 1", pr.dest, pr.bucket, got[pr])
		}
	}
	for pr, n := range got {
		if !need[pr] {
			t.Fatalf("move copies (dest %d, bucket %d) which member already holds (%d times)", pr.dest, pr.bucket, n)
		}
	}
	if p.Buckets() != len(need) {
		t.Fatalf("plan reports %d buckets, invariant check found %d", p.Buckets(), len(need))
	}
}

// TestPlanInvariants checks join and leave plans across placements and
// dimensionalities: exact coverage, correct donors, minimal moves.
func TestPlanInvariants(t *testing.T) {
	mk := func(dims []int, nodes, replicas, stride int) *ShardMap {
		sm, err := NewShardMap(grid.MustNew(dims...), nodes, replicas, stride)
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}
	cases := []struct {
		name string
		from *ShardMap
		plan func(*ShardMap) (*MigrationPlan, error)
	}{
		{"join chain R2", mk([]int{8, 8}, 4, 2, 1), PlanJoin},
		{"join offset R2", mk([]int{8, 8}, 4, 2, 2), PlanJoin},
		{"join unreplicated", mk([]int{8, 8}, 5, 1, 1), PlanJoin},
		{"join 3d", mk([]int{4, 4, 4}, 3, 2, 1), PlanJoin},
		{"leave chain R2", mk([]int{8, 8}, 4, 2, 1), func(sm *ShardMap) (*MigrationPlan, error) { return PlanLeave(sm, 1) }},
		{"leave last member", mk([]int{8, 8}, 4, 2, 1), func(sm *ShardMap) (*MigrationPlan, error) { return PlanLeave(sm, 3) }},
		{"leave 3d", mk([]int{4, 4, 4}, 4, 2, 1), func(sm *ShardMap) (*MigrationPlan, error) { return PlanLeave(sm, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.plan(tc.from)
			if err != nil {
				t.Fatal(err)
			}
			verifyPlan(t, p)
			if p.Kind == "join" {
				if want := tc.from.MaxMember() + 1; p.Member != want {
					t.Errorf("joiner member = %d, want %d", p.Member, want)
				}
				if p.To.Nodes() != tc.from.Nodes()+1 {
					t.Errorf("To nodes = %d", p.To.Nodes())
				}
			} else {
				if _, ok := p.To.NodeOfMember(p.Member); ok {
					t.Errorf("leaver %d still in To map", p.Member)
				}
				if p.To.Nodes() != tc.from.Nodes()-1 {
					t.Errorf("To nodes = %d", p.To.Nodes())
				}
			}
		})
	}
	// Refusals.
	if _, err := PlanLeave(mk([]int{8, 8}, 4, 2, 1), 9); err == nil {
		t.Error("leave of unknown member accepted")
	}
	if _, err := PlanJoin(nil); err == nil {
		t.Error("join of nil map accepted")
	}
}

// startQueriers launches background clients that continuously compare
// the cluster's answers, order included, to the single-node oracle until
// done closes.
// The returned check function must be called after the queriers stop.
func startQueriers(tc *testCluster, done chan struct{}) (wait func() []error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	queries := testQueries(tc.g)
	want := make([][]int, len(queries))
	for i, q := range queries {
		rs, err := tc.ref.CellRangeSearch(q)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ids := make([]int, len(rs.Records))
		for j, r := range rs.Records {
			ids[j] = r.ID
		}
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
				res, err := tc.h.Router().Search(context.Background(), queries[qi])
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				if !equalInts(resultIDs(res), want[qi]) {
					mu.Lock()
					errs = append(errs, errors.New("answer diverged from single-node oracle mid-migration"))
					mu.Unlock()
					return
				}
			}
		}()
	}
	return func() []error { wg.Wait(); return errs }
}

// TestMigrateOnlineDifferential runs a join and then a leave with
// clients querying throughout, asserting every answer stays
// bit-identical to the single-node oracle while buckets move and the
// epoch advances twice.
func TestMigrateOnlineDifferential(t *testing.T) {
	tc := startElasticCluster(t, 4, 2, 1)
	done := make(chan struct{})
	wait := startQueriers(tc, done)

	// Throttle so copies genuinely interleave with the queriers.
	throttle, err := repair.NewThrottle(600, 0)
	if err != nil {
		t.Fatal(err)
	}
	join, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Migrate(context.Background(), MigrateConfig{
		Plan:      join,
		Endpoints: tc.h.URLs(),
		Throttle:  throttle,
		Router:    tc.h.Router(),
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if st.Aborted || st.Buckets == 0 {
		t.Fatalf("join stats %+v", st)
	}
	if got := tc.h.Router().Epoch(); got != 2 {
		t.Fatalf("epoch after join = %d", got)
	}

	// Now retire the joiner again, still under load.
	leave, err := PlanLeave(tc.h.Map(), join.Member)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(context.Background(), MigrateConfig{
		Plan:      leave,
		Endpoints: tc.h.URLs(),
		Throttle:  throttle,
		Router:    tc.h.Router(),
	}); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := tc.h.Router().Epoch(); got != 3 {
		t.Fatalf("epoch after leave = %d", got)
	}

	close(done)
	for _, err := range wait() {
		t.Errorf("querier: %v", err)
	}
}

// TestMigrateDegradedAbortsCleanly crashes a destination mid-cluster
// and proves a migration through it fails safe: the change aborts, the
// routing epoch never moves, and clients — replicated, so still whole —
// keep getting oracle-exact answers before, during, and after.
func TestMigrateDegradedAbortsCleanly(t *testing.T) {
	tc := startElasticCluster(t, 4, 2, 0)
	tc.h.Faults().Crash(1)

	done := make(chan struct{})
	wait := startQueriers(tc, done)

	plan, err := PlanLeave(tc.h.Map(), 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Migrate(context.Background(), MigrateConfig{
		Plan:         plan,
		Endpoints:    tc.h.URLs(),
		Router:       tc.h.Router(),
		FetchTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("migration through a crashed destination succeeded")
	}
	if !st.Aborted {
		t.Fatalf("stats not aborted: %+v (err %v)", st, err)
	}
	if got := tc.h.Router().Epoch(); got != 1 {
		t.Fatalf("router epoch after abort = %d, want 1", got)
	}
	close(done)
	for _, err := range wait() {
		t.Errorf("querier: %v", err)
	}
	// The old epoch still answers exactly after the rollback.
	res, err := tc.h.Router().Search(context.Background(), tc.g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultIDs(res), tc.refIDs(t, tc.g.FullRect()); !equalInts(got, want) {
		t.Fatalf("post-abort answer %d records, oracle %d", len(got), len(want))
	}
}

// TestMigrateCrashMidCopyRollsBack cancels the migration driver after a
// few copied buckets — the coordinator dying mid-COPY — and asserts the
// cluster converges back to the old epoch with nothing lost, then that
// a re-run completes the membership change from scratch.
func TestMigrateCrashMidCopyRollsBack(t *testing.T) {
	tc := startElasticCluster(t, 4, 2, 1)
	plan, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := Migrate(ctx, MigrateConfig{
		Plan:      plan,
		Endpoints: tc.h.URLs(),
		Router:    tc.h.Router(),
		Progress: func(ev MigrateEvent) {
			if ev.Phase == "copy" && ev.Buckets == 3 {
				cancel() // the crash: coordinator context dies mid-copy
			}
		},
	})
	if err == nil || !st.Aborted {
		t.Fatalf("cancelled migration: err=%v stats=%+v", err, st)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abort cause = %v, want context.Canceled", err)
	}
	if got := tc.h.Router().Epoch(); got != 1 {
		t.Fatalf("router epoch after crash = %d, want 1", got)
	}
	// No bucket was lost: the old epoch still answers the oracle answer.
	res, err := tc.h.Router().Search(context.Background(), tc.g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultIDs(res), tc.refIDs(t, tc.g.FullRect()); !equalInts(got, want) {
		t.Fatalf("post-crash answer %d records, oracle %d", len(got), len(want))
	}

	// A re-run starts clean — the staged epoch was dropped everywhere —
	// and carries the same change through.
	rerun, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	st, err = Migrate(context.Background(), MigrateConfig{
		Plan:      rerun,
		Endpoints: tc.h.URLs(),
		Router:    tc.h.Router(),
	})
	if err != nil {
		t.Fatalf("re-run after crash: %v", err)
	}
	if st.Aborted || tc.h.Router().Epoch() != 2 {
		t.Fatalf("re-run: stats %+v, epoch %d", st, tc.h.Router().Epoch())
	}
	res, err = tc.h.Router().Search(context.Background(), tc.g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultIDs(res), tc.refIDs(t, tc.g.FullRect()); !equalInts(got, want) {
		t.Fatalf("post-rerun answer %d records, oracle %d", len(got), len(want))
	}
}

// TestMigrateRejoinAfterLeave cycles one member out and back in, with
// clients watching throughout. The rejoining node still holds its
// retired epoch's records live, and the join plan re-sends everything it
// will host — the overlap must not double-count, neither in dual-reads
// mid-migration nor in the file the final cutover rebuilds.
func TestMigrateRejoinAfterLeave(t *testing.T) {
	tc := startElasticCluster(t, 4, 2, 1)
	done := make(chan struct{})
	wait := startQueriers(tc, done)
	throttle, err := repair.NewThrottle(600, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(plan *MigrationPlan) {
		t.Helper()
		st, err := Migrate(context.Background(), MigrateConfig{
			Plan:      plan,
			Endpoints: tc.h.URLs(),
			Throttle:  throttle,
			Router:    tc.h.Router(),
		})
		if err != nil {
			t.Fatalf("epoch %d→%d: %v", plan.From.Epoch(), plan.To.Epoch(), err)
		}
		if st.Aborted {
			t.Fatalf("epoch %d→%d aborted: %+v", plan.From.Epoch(), plan.To.Epoch(), st)
		}
	}
	join, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	run(join)
	leave, err := PlanLeave(tc.h.Map(), join.Member)
	if err != nil {
		t.Fatal(err)
	}
	run(leave)
	rejoin, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	if rejoin.Member != join.Member {
		t.Fatalf("rejoin picked member %d, want the retired %d", rejoin.Member, join.Member)
	}
	run(rejoin)
	if got := tc.h.Router().Epoch(); got != 4 {
		t.Fatalf("epoch after join/leave/rejoin = %d, want 4", got)
	}
	close(done)
	for _, err := range wait() {
		t.Errorf("querier: %v", err)
	}
	// The steady-state answer after the cycle is exact too — the
	// rejoined node's rebuilt file holds each record exactly once.
	res, err := tc.h.Router().Search(context.Background(), tc.g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultIDs(res), tc.refIDs(t, tc.g.FullRect()); !equalInts(got, want) {
		t.Fatalf("post-rejoin answer %d records, oracle %d", len(got), len(want))
	}
}

// TestRebuildNoDonorFailsFast is the regression for the donor-rotation
// cap: when every replica holder of a shard is hard-down, the rebuild
// must fail quickly with the typed ErrNoDonor — which also matches
// fault.ErrUnavailable for existing "data unreachable" handling —
// instead of burning the full patient-retry budget.
func TestRebuildNoDonorFailsFast(t *testing.T) {
	tc := startElasticCluster(t, 4, 3, 0)
	// Member 1's shards are replicated on members {0,2,3}; crash them
	// all so every donor rotation comes up empty.
	tc.h.Faults().Crash(0)
	tc.h.Faults().Crash(2)
	tc.h.Faults().Crash(3)
	start := time.Now()
	_, err := RebuildNode(context.Background(), RebuildConfig{
		Map:           tc.h.Map(),
		Endpoints:     tc.h.URLs(),
		FetchTimeout:  300 * time.Millisecond,
		FetchAttempts: 16,
	}, tc.h.Node(1))
	if !errors.Is(err, ErrNoDonor) {
		t.Fatalf("want ErrNoDonor, got %v", err)
	}
	if !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("ErrNoDonor must also match fault.ErrUnavailable, got %v", err)
	}
	// The no-donor fuse (2 rounds) must beat the 16-round budget by a
	// wide margin: crashed donors answer with instant aborts, so even a
	// generous bound proves the fast path was taken.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("no-donor rebuild took %v; fuse did not fire", elapsed)
	}
}

// TestMigrateBucketRefusesForeignRecords: a /v1/migrate/bucket page names
// its bucket, and one carrying a record of another bucket is refused
// with 400 before staging is touched. Node 0 of a two-node unreplicated
// cluster takes over member 1's buckets in a leave; the first page it is
// sent carries one extra copy of a record from bucket 0, which node 0
// holds live. Ingested, that copy would outlive cutover as record 1,501.
func TestMigrateBucketRefusesForeignRecords(t *testing.T) {
	tc := startTestCluster(t, 2, 1, RouterConfig{})
	ctx := context.Background()
	plan, err := PlanLeave(tc.h.Map(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.From.Holds(0, 0) || tc.ref.BucketLen(0) == 0 {
		t.Fatal("node 0 does not hold a record in bucket 0: not the scenario under test")
	}
	stray := tc.ref.Bucket(0)[0]
	cp := newCopier(copier{g: tc.g, endpoints: tc.h.URLs(), epoch: plan.From.Epoch()}, nil, "")
	if err := cp.post(ctx, 0, "prepare", prepareRequest{Map: toWireMap(plan.To)}); err != nil {
		t.Fatal(err)
	}
	refused := false
	err = cp.run(ctx, plan.Moves, func(dest int, cell grid.Coord, recs []datagen.Record) error {
		page := &recordPage{Epoch: plan.To.Epoch(), Buckets: 1, Cell: cell, Records: recs}
		if !refused {
			refused = true
			bad := *page
			bad.Records = append(slices.Clone(recs), stray)
			if err := cp.post(ctx, dest, "bucket", &bad); err == nil || !strings.Contains(err.Error(), CodeBadRequest) {
				t.Errorf("a page for cell %v carrying record %d of bucket 0 drew %v, want a bad_request refusal", cell, stray.ID, err)
			}
		}
		return cp.post(ctx, dest, "bucket", page)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.post(ctx, 0, "cutover", epochRequest{Epoch: plan.To.Epoch()}); err != nil {
		t.Fatal(err)
	}
	if got := tc.h.Node(0).Records(); got != len(tc.recs) {
		t.Fatalf("after cutover node 0 holds %d records, want %d", got, len(tc.recs))
	}
}

// TestRebuildSkipsDonorWithForeignRecords: a donor whose /v1/bucket page
// carries a record of another bucket has failed, and the rebuild takes
// the bucket from the next donor instead of planting the stray copy.
func TestRebuildSkipsDonorWithForeignRecords(t *testing.T) {
	tc := startTestCluster(t, 4, 3, RouterConfig{})
	target := tc.h.Node(1)
	want := target.Records()
	liar := fill(tc.h.Map(), tc.h.Map(), target.ID(), true)[0].Sources[0]
	a := tc.recs[0]
	ba, err := tc.ref.BucketOf(a.Values)
	if err != nil {
		t.Fatal(err)
	}
	b := tc.recs[slices.IndexFunc(tc.recs, func(r datagen.Record) bool {
		br, _ := tc.ref.BucketOf(r.Values)
		return br != ba
	})]
	urls := tc.h.URLs()
	urls[liar] = tamper(t, tc.h.Node(liar).Handler(), "/v1/bucket", func(p *recordPage) {
		stray := a // foreign to every bucket but a's, whose page holds a
		if slices.ContainsFunc(p.Records, func(r datagen.Record) bool { return r.ID == a.ID }) {
			stray = b
		}
		p.Records = append(p.Records, stray)
	})
	tc.h.Faults().Crash(1)
	st, err := RebuildNode(context.Background(), RebuildConfig{Map: tc.h.Map(), Endpoints: urls}, target)
	if err != nil {
		t.Fatal(err)
	}
	if got := target.Records(); got != want {
		t.Fatalf("rebuilt node holds %d records, want %d", got, want)
	}
	if st.Retries == 0 {
		t.Errorf("no fetch from member %d was refused", liar)
	}
}
