package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"decluster/internal/datagen"
	"decluster/internal/grid"
)

// TestHoldsMatchesShardRects pins Holds against the definition it
// replaced — "some shard the member hosts has a Rect containing the
// cell" — over dimensionalities, cluster sizes, replica counts and both
// placements, on fresh maps and on the non-identity-membered maps a
// join and a leave produce, for every member plus one ID no map knows.
func TestHoldsMatchesShardRects(t *testing.T) {
	check := func(t *testing.T, sm *ShardMap) {
		t.Helper()
		g := sm.Grid()
		for _, member := range append(append([]int(nil), sm.Members()...), sm.MaxMember()+1) {
			for b := 0; b < g.Buckets(); b++ {
				c := g.Delinearize(b, nil)
				want := false
				for _, s := range sm.HostedShardsOfMember(member) {
					want = want || sm.Shard(s).Rect.Contains(c)
				}
				if got := sm.Holds(member, b); got != want {
					t.Fatalf("epoch %d: Holds(member %d, bucket %d %v) = %v, shard rects say %v",
						sm.Epoch(), member, b, c, got, want)
				}
			}
		}
	}
	for _, dims := range [][]int{{8, 8}, {4, 4, 4}, {16, 3}} {
		for nodes := 1; nodes <= 6; nodes++ {
			for replicas := 1; replicas <= 3 && replicas <= nodes; replicas++ {
				for _, stride := range []int{1, 2} {
					sm, err := NewShardMap(grid.MustNew(dims...), nodes, replicas, stride)
					if err != nil {
						continue // stride collides at this size; the constructor's own test covers it
					}
					t.Run(fmt.Sprintf("%v/N%d/R%d/%s", dims, nodes, replicas, sm.PlacementName()), func(t *testing.T) {
						check(t, sm)
						if join, err := PlanJoin(sm); err == nil {
							check(t, join.To)
							// Member 0 leaves the grown map: IDs 1..N, no longer
							// equal to their node indices, and 0 a non-member.
							if leave, err := PlanLeave(join.To, 0); err == nil {
								check(t, leave.To)
								if leave.To.Holds(0, 0) {
									t.Fatal("a member that left still holds bucket 0")
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestHoldsAdmitsAcrossShards checks admission is per bucket, not per
// shard rectangle: a rect spanning two shards the node hosts is
// answered, one that takes in a single foreign bucket is refused with
// ErrNotHosted, and the walk allocates nothing.
func TestHoldsAdmitsAcrossShards(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	sm, g := tc.h.Map(), tc.g
	n := tc.h.Node(1)
	// On the 8×8 chain map node 1 hosts shards 0 and 1, the two 4×4
	// halves of the slab <0,0>..<3,7>.
	hosted := sm.HostedShardsOfMember(n.ID())
	if len(hosted) != 2 {
		t.Fatalf("node %d hosts shards %v, want two", n.ID(), hosted)
	}
	a, b := sm.Shard(hosted[0]).Rect, sm.Shard(hosted[1]).Rect
	span := grid.Rect{Lo: a.Lo.Clone(), Hi: b.Hi.Clone()}
	if g.CheckRect(span) != nil || span.Volume() != a.Volume()+b.Volume() {
		t.Fatalf("shards %v and %v do not make one rectangle; pick another fixture", a, b)
	}
	if _, _, _, err := n.admit(span, sm.Epoch()); err != nil {
		t.Fatalf("admit(%v), every bucket hosted across two shards: %v", span, err)
	}
	search := routerOps[0]
	if err := search.leg(context.Background(), tc.h.Router(), n.ID(), span, sm.Epoch()); err != nil {
		t.Fatalf("search leg over %v: %v", span, err)
	}
	if avg := testing.AllocsPerRun(50, func() { _, _, _, _ = n.admit(span, sm.Epoch()) }); avg != 0 {
		t.Errorf("admit allocates %.1f times per call, want 0", avg)
	}

	// Shave the span to one row and push it one bucket past the slab:
	// exactly one foreign bucket.
	foreign := grid.Rect{Lo: span.Lo.Clone(), Hi: span.Lo.Clone()}
	foreign.Hi[0] = span.Hi[0] + 1
	held := 0
	g.EachBucket(foreign, func(b int) bool {
		if sm.Holds(n.ID(), b) {
			held++
		}
		return true
	})
	if held != foreign.Volume()-1 {
		t.Fatalf("rect %v holds %d of %d buckets, want all but one", foreign, held, foreign.Volume())
	}
	if _, _, _, err := n.admit(foreign, sm.Epoch()); !errors.Is(err, ErrNotHosted) {
		t.Fatalf("admit(%v) with one foreign bucket: err = %v, want ErrNotHosted", foreign, err)
	}
}

// pageIDs returns a record page's IDs, sorted.
func pageIDs(recs []datagen.Record) []int {
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	sort.Ints(ids)
	return ids
}

// TestPendingEpochReadsMatchOracle is the regression for the untrimmed
// pending-epoch branch of /v1/bucket: after a join, the members that
// gave buckets to the joiner keep them live through the grace window,
// so when the leave copies those buckets back the destination holds
// each record twice — live leftover and staged copy. Both data
// endpoints, asked at the pending epoch, must answer every copied bucket
// exactly as the single-node oracle does.
func TestPendingEpochReadsMatchOracle(t *testing.T) {
	tc := startElasticCluster(t, 3, 2, 1)
	ctx := context.Background()
	join, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(ctx, MigrateConfig{Plan: join, Endpoints: tc.h.URLs(), Router: tc.h.Router()}); err != nil {
		t.Fatalf("join: %v", err)
	}
	leave, err := PlanLeave(tc.h.Map(), join.Member)
	if err != nil {
		t.Fatal(err)
	}

	// PREPARE and COPY the leave by hand, stopping short of CUTOVER.
	pending := leave.To.Epoch()
	cp := newCopier(copier{g: tc.g, endpoints: tc.h.URLs(), epoch: leave.From.Epoch()}, nil, "")
	for _, m := range unionMembers(leave.From, leave.To) {
		if err := cp.post(ctx, m, "prepare", prepareRequest{Map: toWireMap(leave.To)}); err != nil {
			t.Fatalf("prepare member %d: %v", m, err)
		}
	}
	defer abortAll(cp, nil, unionMembers(leave.From, leave.To), pending)
	sent := map[[2]int]int{} // (dest, bucket) → records the donor sent
	if err := cp.run(ctx, leave.Moves, func(dest int, cell grid.Coord, recs []datagen.Record) error {
		sent[[2]int{dest, tc.g.Linearize(cell)}] = len(recs)
		return cp.post(ctx, dest, "bucket", &recordPage{Epoch: pending, Buckets: 1, Cell: cell, Records: recs})
	}); err != nil {
		t.Fatalf("copy: %v", err)
	}
	if len(sent) == 0 {
		t.Fatal("the leave copied nothing")
	}

	at := newCopier(copier{g: tc.g, endpoints: tc.h.URLs(), epoch: pending}, nil, "")
	wrongBucket, wrongQuery := 0, 0
	for key, n := range sent {
		dest, cell := key[0], tc.g.Delinearize(key[1], nil)
		rect := grid.Rect{Lo: cell, Hi: cell.Clone()}
		want := tc.refIDs(t, rect)
		if n != len(want) {
			t.Fatalf("bucket %v: donor sent %d records, oracle has %d", cell, n, len(want))
		}
		got, err := at.fetchBucketFrom(ctx, tc.h.URL(dest), cell)
		if err != nil {
			t.Fatalf("GET /v1/bucket %v on member %d at pending epoch %d: %v", cell, dest, pending, err)
		}
		if !equalInts(pageIDs(got), want) {
			wrongBucket++
			t.Errorf("/v1/bucket %v on member %d at pending epoch: %d records, donor sent %d", cell, dest, len(got), n)
		}
		var page recordPage
		if err := exchange(ctx, at.client, at.timeout, tc.h.URL(dest)+"/v1/query",
			queryRequest{Rect: toWireRect(rect), Epoch: pending}, &page, recordPayloadLimit); err != nil {
			t.Fatalf("POST /v1/query %v on member %d at pending epoch %d: %v", cell, dest, pending, err)
		}
		if !equalInts(pageIDs(page.Records), want) {
			wrongQuery++
			t.Errorf("/v1/query %v on member %d at pending epoch: %d records, donor sent %d", cell, dest, len(page.Records), n)
		}
	}
	if wrongBucket+wrongQuery > 0 {
		t.Fatalf("%d copied buckets: /v1/bucket wrong on %d, /v1/query wrong on %d", len(sent), wrongBucket, wrongQuery)
	}
}

// TestRebuildAndMigrateCopyAlike runs the one copier from both entry
// points over the same bucket set and checks they account it alike. A
// join into a fully replicated 2-node cluster moves buckets to the
// joiner only, and exactly the ones a later rebuild of the joiner
// refetches.
func TestRebuildAndMigrateCopyAlike(t *testing.T) {
	tc := startElasticCluster(t, 2, 2, 1)
	ctx := context.Background()
	join, err := PlanJoin(tc.h.Map())
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range join.Moves {
		if mv.Dest != join.Member {
			t.Fatalf("move %+v: members of a 2-node R2 map already hold everything", mv)
		}
	}
	mig, err := Migrate(ctx, MigrateConfig{Plan: join, Endpoints: tc.h.URLs(), Router: tc.h.Router()})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	tc.h.Faults().Crash(join.Member)
	reb, err := RebuildNode(ctx, RebuildConfig{Map: tc.h.Map(), Endpoints: tc.h.URLs()}, tc.h.Node(join.Member))
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if mig.Buckets == 0 || mig.Buckets != join.Buckets() {
		t.Fatalf("migration copied %d buckets, plan has %d", mig.Buckets, join.Buckets())
	}
	if reb.Buckets != mig.Buckets || reb.Records != mig.Records || reb.Pages != mig.Pages {
		t.Fatalf("rebuild copied %d buckets / %d records / %d pages, migration of the same set %d / %d / %d",
			reb.Buckets, reb.Records, reb.Pages, mig.Buckets, mig.Records, mig.Pages)
	}
}
