package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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
	"decluster/internal/serve"
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

// TestRebuildDropsPrevEpoch: a rebuild restores the current epoch's
// buckets only, so the rebuilt member must stop serving its previous
// epoch. After a 3→4-node join member 0 still answers the pre-join epoch
// for ⟨0,4⟩, a bucket the join moved off it; once rebuilt it must send
// a leg stamped with that epoch to the current map — not answer it,
// counted and valid, with none of the bucket's records.
func TestRebuildDropsPrevEpoch(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 1)
	ctx := context.Background()
	from := tc.h.Map()
	join, err := PlanJoin(from)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(ctx, MigrateConfig{Plan: join, Endpoints: tc.h.URLs(), Router: tc.h.Router()}); err != nil {
		t.Fatal(err)
	}
	cell := grid.Rect{Lo: grid.Coord{0, 4}, Hi: grid.Coord{0, 4}}
	if b := tc.g.Linearize(cell.Lo); !from.Holds(0, b) || tc.h.Map().Holds(0, b) {
		t.Fatalf("member 0 does not lose %v in the join: not the scenario under test", cell.Lo)
	}
	want := len(tc.refIDs(t, cell))
	leg, err := callNode(ctx, tc.h.Router(), searchOp, 0, []grid.Rect{cell}, from.Epoch())
	if err != nil {
		t.Fatalf("epoch %d leg before the rebuild: %v", from.Epoch(), err)
	}
	if got := leg.n; got != want || want == 0 {
		t.Fatalf("epoch %d leg before the rebuild: %d records, oracle %d", from.Epoch(), got, want)
	}
	leg.release()

	if _, err := RebuildNode(ctx, RebuildConfig{Map: tc.h.Map(), Endpoints: tc.h.URLs()}, tc.h.Node(0)); err != nil {
		t.Fatal(err)
	}
	leg, err = callNode(ctx, tc.h.Router(), searchOp, 0, []grid.Rect{cell}, from.Epoch())
	var stale *StaleEpochError
	if !errors.As(err, &stale) || stale.NodeEpoch != join.To.Epoch() {
		n := -1
		if leg != nil {
			n = leg.n
			leg.release()
		}
		t.Fatalf("epoch %d leg after the rebuild: err = %v (%d records), want StaleEpoch naming epoch %d",
			from.Epoch(), err, n, join.To.Epoch())
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
	cp := newCopier(copier{g: tc.g, endpoints: tc.h.URLs(), epoch: plan.From.Epoch()})
	if err := cp.post(ctx, 0, "prepare", prepareRequest{Map: toWireMap(plan.To)}, nil); err != nil {
		t.Fatal(err)
	}
	refused := false
	_, _, err = copyMoves(ctx, cp, plan.Moves, copyConfig(0, nil), func(dest int, cell grid.Coord, recs []datagen.Record) error {
		page := &recordPage{Epoch: plan.To.Epoch(), Buckets: 1, Cell: cell, Records: recs}
		if !refused {
			refused = true
			bad := *page
			bad.Records = append(slices.Clone(recs), stray)
			if err := cp.post(ctx, dest, "bucket", &bad, nil); err == nil || !strings.Contains(err.Error(), CodeBadRequest) {
				t.Errorf("a page for cell %v carrying record %d of bucket 0 drew %v, want a bad_request refusal", cell, stray.ID, err)
			}
		}
		return cp.post(ctx, dest, "bucket", page, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.post(ctx, 0, "cutover", epochRequest{Epoch: plan.To.Epoch()}, nil); err != nil {
		t.Fatal(err)
	}
	if got := tc.h.Node(0).Records(); got != len(tc.recs) {
		t.Fatalf("after cutover node 0 holds %d records, want %d", got, len(tc.recs))
	}
}

// TestRebuildSkipsDonorWithForeignRecords: a donor whose /v1/query page
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
	urls[liar] = tamper(t, tc.h.Node(liar).Handler(), "/v1/query", func(p *recordPage) {
		stray := a // foreign to every bucket but a's, whose page holds a
		if slices.ContainsFunc(p.Records, func(r datagen.Record) bool { return r.ID == a.ID }) {
			stray = b
		}
		// Counted with the page's last bucket, the frame stays valid: the
		// destination's partition check is what must refuse it.
		p.Records = append(p.Records, stray)
		p.Counts[len(p.Counts)-1]++
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

// TestMigrateSkipsDonorWithForeignRecords is the migration twin of
// TestRebuildSkipsDonorWithForeignRecords: every /v1/query page of the
// first donor of the join's first move carries one record of another
// bucket. The destination refuses each such page as a bad request, the
// copier counts that donor as failed and takes the bucket from the next
// one, and the join completes with the oracle's answers.
func TestMigrateSkipsDonorWithForeignRecords(t *testing.T) {
	tc := startElasticCluster(t, 4, 2, 1)
	plan, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves[0].Sources) < 2 {
		t.Fatalf("move %+v has one donor: not the scenario under test", plan.Moves[0])
	}
	liar := plan.Moves[0].Sources[0]
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
	urls[liar] = tamper(t, tc.h.Node(liar).Handler(), "/v1/query", func(p *recordPage) {
		stray := a // foreign to every bucket but a's, whose page holds a
		if slices.ContainsFunc(p.Records, func(r datagen.Record) bool { return r.ID == a.ID }) {
			stray = b
		}
		// Counted with the page's last bucket, the frame stays valid: the
		// destination's partition check is what must refuse it.
		p.Records = append(p.Records, stray)
		p.Counts[len(p.Counts)-1]++
	})
	st, err := Migrate(context.Background(), MigrateConfig{Plan: plan, Endpoints: urls, Router: tc.h.Router()})
	if err != nil {
		t.Fatalf("join past a donor with foreign records: %v", err)
	}
	if st.Retries == 0 {
		t.Errorf("no page from member %d was refused", liar)
	}
	if got := tc.h.Router().Epoch(); got != plan.To.Epoch() {
		t.Fatalf("router epoch after join = %d, want %d", got, plan.To.Epoch())
	}
	for _, q := range append(testQueries(tc.g), tc.g.FullRect()) {
		res, err := tc.h.Router().Search(context.Background(), q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if got, want := resultIDs(res), tc.refIDs(t, q); !equalInts(got, want) {
			t.Fatalf("%v after the join: %d records, oracle %d", q, len(got), len(want))
		}
	}
}

// prioLog counts, by priority, the /v1/query bodies its proxies saw.
type prioLog struct {
	mu sync.Mutex
	n  map[int]int
}

// proxy fronts h with a server that logs every /v1/query body's priority.
func (l *prioLog) proxy(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			body, _ := io.ReadAll(r.Body)
			req, err := decodeRequest(r.Header.Get("Content-Type"), bytes.NewReader(body), false)
			if err != nil {
				t.Errorf("/v1/query body %x: %v", body, err)
			}
			l.mu.Lock()
			l.n[req.Priority]++
			l.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// take returns the counts so far and starts afresh.
func (l *prioLog) take() map[int]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	l.n = map[int]int{}
	return n
}

// TestCopierReadsAtOwnPriority: a join reads its buckets through
// /v1/query at serve.MigrationPriority and a rebuild at
// repair.BackgroundPriority, while the router legs running beside them
// carry 0, the foreground tier. Every member sits behind two logging
// proxies, one the router's and one the copier's.
func TestCopierReadsAtOwnPriority(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 1)
	ctx := context.Background()
	legs, copies := &prioLog{n: map[int]int{}}, &prioLog{n: map[int]int{}}
	legURLs, copyURLs := tc.h.URLs(), tc.h.URLs()
	for m := range legURLs {
		legURLs[m] = legs.proxy(t, tc.h.Node(m).Handler())
		copyURLs[m] = copies.proxy(t, tc.h.Node(m).Handler())
	}
	rt, err := NewRouter(RouterConfig{
		Map:          tc.h.Map(),
		Endpoints:    legURLs,
		Retry:        exec.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
		NodeDeadline: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop, searching := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qs := testQueries(tc.g)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = rt.Search(ctx, qs[i%len(qs)]) // a leg's priority is logged whatever the answer
			if i == 0 {
				close(searching)
			}
		}
	}()
	<-searching

	join, err := PlanJoin(rt.Map())
	if err != nil {
		t.Fatal(err)
	}
	mig, err := Migrate(ctx, MigrateConfig{Plan: join, Endpoints: copyURLs, Router: rt})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	joinReads := copies.take()
	tc.h.Faults().Crash(0)
	reb, err := RebuildNode(ctx, RebuildConfig{Map: rt.Map(), Endpoints: copyURLs}, tc.h.Node(0))
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	rebuildReads := copies.take()
	close(stop)
	wg.Wait()

	for _, c := range []struct {
		name    string
		reads   map[int]int
		prio    int
		buckets int
	}{
		{"join", joinReads, serve.MigrationPriority, mig.Buckets},
		{"rebuild", rebuildReads, repair.BackgroundPriority, reb.Buckets},
	} {
		if c.buckets == 0 || len(c.reads) != 1 || c.reads[c.prio] < c.buckets {
			t.Errorf("%s copied %d buckets through /v1/query reads at priorities %v, want each at %d", c.name, c.buckets, c.reads, c.prio)
		}
	}
	if got := legs.take(); len(got) != 1 || got[0] == 0 {
		t.Errorf("router legs at priorities %v, want every one at 0", got)
	}
}

// TestMigrateLostCutoverAckServesPendingEpoch covers the one reader of a
// node's pending epoch: a router that learnt the To map — by gossip from
// a member that cut over — while another member's cutover ack was lost.
// Member 2 is partitioned once member 0 has cut over, so Migrate stops
// with the cutover incomplete and member 2 still on the From epoch, the
// To map only pending there. Healed, member 2 answers a To-epoch leg in
// full, and a router built over the To map gets the oracle's answers.
func TestMigrateLostCutoverAckServesPendingEpoch(t *testing.T) {
	tc := startElasticCluster(t, 4, 2, 1)
	ctx := context.Background()
	plan, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	const lost = 2
	st, err := Migrate(ctx, MigrateConfig{
		Plan:          plan,
		Endpoints:     tc.h.URLs(),
		FetchTimeout:  300 * time.Millisecond,
		FetchAttempts: 2,
		Progress: func(ev MigrateEvent) {
			if ev.Phase == "cutover" && ev.Member == 0 {
				tc.h.Faults().Partition(lost)
			}
		},
	})
	if err == nil || st.Aborted || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("join with member %d partitioned at cutover: err = %v, stats %+v; want cutover incomplete", lost, err, st)
	}
	tc.h.Faults().Heal(lost)
	if got := tc.h.Node(lost).Epoch(); got != plan.From.Epoch() {
		t.Fatalf("member %d at epoch %d, want it left at %d", lost, got, plan.From.Epoch())
	}

	rt, err := NewRouter(RouterConfig{
		Map:          plan.To,
		Endpoints:    tc.h.URLs(),
		Retry:        exec.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
		NodeDeadline: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	legs := 0
	for _, sh := range plan.To.Shards() {
		if !slices.Contains(plan.To.ShardMembers(sh.ID), lost) {
			continue
		}
		leg, err := callNode(ctx, rt, searchOp, lost, []grid.Rect{sh.Rect}, plan.To.Epoch())
		if err != nil {
			t.Fatalf("member %d, shard %d at pending epoch %d: %v", lost, sh.ID, plan.To.Epoch(), err)
		}
		if got, want := leg.n, len(tc.refIDs(t, sh.Rect)); got != want {
			t.Fatalf("member %d, shard %d at pending epoch %d: %d records, oracle %d", lost, sh.ID, plan.To.Epoch(), got, want)
		}
		leg.release()
		legs++
	}
	if legs == 0 {
		t.Fatalf("member %d hosts nothing under the To map: not the scenario under test", lost)
	}
	res, err := rt.Search(ctx, tc.g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != plan.To.Epoch() || res.EpochFollows != 0 {
		t.Fatalf("answer routed under epoch %d after %d follows, want %d after none", res.Epoch, res.EpochFollows, plan.To.Epoch())
	}
	if got, want := resultIDs(res), tc.refIDs(t, tc.g.FullRect()); !equalInts(got, want) {
		t.Fatalf("To-map router answer %d records, oracle %d", len(got), len(want))
	}
}

// TestMigrateRerunFinishesIncompleteCutover: a cutover stopped part-way
// — member 2 partitioned once member 0 has cut over — is finished by
// re-running the same plan after the heal, as Migrate's error says. The
// re-run must not copy again (member 0 no longer has the To map staged)
// nor abort (that would drop the staged map on the members behind): it
// resumes at CUTOVER, and every member, the router and the answers end
// up at the To epoch.
func TestMigrateRerunFinishesIncompleteCutover(t *testing.T) {
	tc := startElasticCluster(t, 4, 2, 1)
	ctx := context.Background()
	plan, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	const lost = 2
	cfg := MigrateConfig{
		Plan:          plan,
		Endpoints:     tc.h.URLs(),
		FetchTimeout:  300 * time.Millisecond,
		FetchAttempts: 2,
		Router:        tc.h.Router(),
		Progress: func(ev MigrateEvent) {
			if ev.Phase == "cutover" && ev.Member == 0 {
				tc.h.Faults().Partition(lost)
			}
		},
	}
	st, err := Migrate(ctx, cfg)
	if err == nil || st.Aborted || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("join with member %d partitioned at cutover: err = %v, stats %+v; want cutover incomplete", lost, err, st)
	}
	tc.h.Faults().Heal(lost)

	cfg.Progress = nil
	if st, err := Migrate(ctx, cfg); err != nil || st.Aborted {
		t.Fatalf("re-run after the heal: err = %v, stats %+v", err, st)
	}
	for _, m := range unionMembers(plan.From, plan.To) {
		if got := tc.h.Node(m).Epoch(); got != plan.To.Epoch() {
			t.Errorf("member %d at epoch %d after the re-run, want %d", m, got, plan.To.Epoch())
		}
	}
	if got := tc.h.Router().Epoch(); got != plan.To.Epoch() {
		t.Fatalf("router at epoch %d after the re-run, want %d", got, plan.To.Epoch())
	}
	res, err := tc.h.Router().Search(ctx, tc.g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultIDs(res), tc.refIDs(t, tc.g.FullRect()); res.Epoch != plan.To.Epoch() || !equalInts(got, want) {
		t.Fatalf("full grid at epoch %d: %d records, oracle %d at epoch %d", res.Epoch, len(got), len(want), plan.To.Epoch())
	}
}

// TestMigrateOutdatedPlanAbortsCleanly: a change planned from a map the
// cluster has left — a leave planned from the boot map after a join took
// its epoch — names the epoch the cluster is already at, under another
// map. It is refused and rolled back: no member, nor the router, takes
// the planned map, and the answers stay the oracle's.
func TestMigrateOutdatedPlanAbortsCleanly(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 1)
	ctx := context.Background()
	boot := tc.h.Map()
	join, err := PlanJoin(boot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(ctx, MigrateConfig{Plan: join, Endpoints: tc.h.URLs(), Router: tc.h.Router()}); err != nil {
		t.Fatal(err)
	}
	leave, err := PlanLeave(boot, 2)
	if err != nil {
		t.Fatal(err)
	}
	if leave.To.Epoch() != join.To.Epoch() {
		t.Fatalf("leave planned to epoch %d, join at %d: not the scenario under test", leave.To.Epoch(), join.To.Epoch())
	}
	st, err := Migrate(ctx, MigrateConfig{Plan: leave, Endpoints: tc.h.URLs(), Router: tc.h.Router()})
	if err == nil || !st.Aborted || !strings.Contains(err.Error(), "re-plan from the current map") {
		t.Fatalf("leave planned from the boot map: err = %v, stats %+v; want an abort asking for a re-plan", err, st)
	}
	for _, m := range unionMembers(join.From, join.To) {
		if got := tc.h.Node(m).CurrentMap(); got.Nodes() != join.To.Nodes() || got.Epoch() != join.To.Epoch() {
			t.Errorf("member %d on a %d-node map at epoch %d, want the join's %d nodes at %d", m, got.Nodes(), got.Epoch(), join.To.Nodes(), join.To.Epoch())
		}
	}
	if got := tc.h.Router().Map(); got.Nodes() != join.To.Nodes() {
		t.Fatalf("router on a %d-node map, want the join's %d", got.Nodes(), join.To.Nodes())
	}
	res, err := tc.h.Router().Search(ctx, tc.g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultIDs(res), tc.refIDs(t, tc.g.FullRect()); !equalInts(got, want) {
		t.Fatalf("full grid: %d records, oracle %d", len(got), len(want))
	}
}
