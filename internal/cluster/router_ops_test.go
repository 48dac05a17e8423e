package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"decluster/internal/aggregate"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/hedge"
	"decluster/internal/obs"
)

// routerOp is one client operation of the router, reduced to what the
// op-parametrised tests need: ask it through the full scatter/gather
// path and check the answer against the single-node reference, or send
// one raw leg to one member.
type routerOp struct {
	name string
	// ask runs the op over q. On a nil error the answer has been compared
	// with the reference file (mismatches are reported on t).
	ask func(ctx context.Context, t *testing.T, tc *testCluster, q grid.Rect) (retries, follows int, err error)
	// leg sends one attempt for rect, stamped with epoch, to member.
	leg func(ctx context.Context, rt *Router, member int, rect grid.Rect, epoch uint64) error
}

var routerOps = []routerOp{
	{
		name: "Search",
		ask: func(ctx context.Context, t *testing.T, tc *testCluster, q grid.Rect) (int, int, error) {
			t.Helper()
			res, err := tc.h.Router().Search(ctx, q)
			if err != nil {
				return 0, 0, err
			}
			if got, want := resultIDs(res), tc.refIDs(t, q); !equalInts(got, want) {
				t.Errorf("search %v: %d records, reference %d", q, len(got), len(want))
			}
			if res.Covered != res.SubQueries {
				t.Errorf("search %v: covered %d of %d sub-queries without an error", q, res.Covered, res.SubQueries)
			}
			return res.Retries, res.EpochFollows, nil
		},
		leg: func(ctx context.Context, rt *Router, member int, rect grid.Rect, epoch uint64) error {
			_, err := callNode(ctx, rt, searchOp, member, []grid.Rect{rect}, epoch)
			return err
		},
	},
	{
		name: "Aggregate",
		ask: func(ctx context.Context, t *testing.T, tc *testCluster, q grid.Rect) (int, int, error) {
			t.Helper()
			res, err := tc.h.Router().Aggregate(ctx, aggregate.AggregateQuery{Rect: q, Op: aggregate.OpSum, Attr: 1})
			if err != nil {
				return 0, 0, err
			}
			rs, rerr := tc.ref.CellRangeSearch(q)
			if rerr != nil {
				t.Fatal(rerr)
			}
			var sum float64
			for _, rec := range rs.Records {
				sum += rec.Values[1]
			}
			if res.Count != int64(len(rs.Records)) || math.Abs(res.Sum-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
				t.Errorf("sum over %v: count %d sum %g, reference count %d sum %g", q, res.Count, res.Sum, len(rs.Records), sum)
			}
			return res.Retries, res.EpochFollows, nil
		},
		leg: func(ctx context.Context, rt *Router, member int, rect grid.Rect, epoch uint64) error {
			q := aggregate.AggregateQuery{Rect: rect, Op: aggregate.OpCount}
			_, err := callNode(ctx, rt, aggregateOp(q), member, []grid.Rect{rect}, epoch)
			return err
		},
	},
}

// TestRouterOps runs every router op through the same scenarios: the two
// share one scatter, so whatever holds for one must hold for the other —
// exact answers through node loss, hedged stragglers, deadline-governed
// rotation and epoch gossip.
func TestRouterOps(t *testing.T) {
	ctx := context.Background()
	scenarios := []struct {
		name string
		run  func(t *testing.T, op routerOp)
	}{
		{"healthy", func(t *testing.T, op routerOp) {
			tc := startTestCluster(t, 4, 2, RouterConfig{})
			for _, q := range testQueries(tc.g) {
				if _, _, err := op.ask(ctx, t, tc, q); err != nil {
					t.Fatalf("query %v: %v", q, err)
				}
			}
		}},
		// One node down: replicas cover it exactly. A whole shard's replica
		// set down: a typed partial error, never a silently short answer.
		{"replica crashed", func(t *testing.T, op routerOp) {
			tc := startTestCluster(t, 4, 2, RouterConfig{})
			tc.h.Faults().Crash(1)
			retries := 0
			for _, q := range testQueries(tc.g) {
				r, _, err := op.ask(ctx, t, tc, q)
				if err != nil {
					t.Fatalf("query %v with node 1 down: %v", q, err)
				}
				retries += r
			}
			if retries == 0 {
				t.Error("no retries with a node down; failover untested")
			}
			tc.h.Faults().Crash(2)
			if _, _, err := op.ask(ctx, t, tc, tc.g.FullRect()); !errors.Is(err, ErrPartial) {
				t.Fatalf("with shard 1's whole replica set down: err = %v, want ErrPartial", err)
			}
		}},
		// Node 0 sleeps ~400ms per request; its shards' other replicas are
		// fast, so the hedge leg must win well before that.
		{"replica slowed past HedgeAfter", func(t *testing.T, op routerOp) {
			sink := obs.NewSink()
			tc := startTestCluster(t, 4, 2, RouterConfig{
				HedgeAfter: 15 * time.Millisecond, NodeDeadline: 5 * time.Second, Obs: sink,
			})
			if err := tc.h.Faults().SetNodeSlow(0, 201); err != nil { // (201-1)·2ms = 400ms
				t.Fatal(err)
			}
			start := time.Now()
			if _, _, err := op.ask(ctx, t, tc, tc.g.FullRect()); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
				t.Errorf("took %v; the 400ms straggler's latency leaked through", elapsed)
			}
			if wins := sink.Registry().Counter("cluster.router.hedgewins").Value(); wins == 0 {
				t.Error("hedge never won against a 400ms straggler")
			}
		}},
		// The attempt budget is a floor: shard 0's only replica refuses
		// (alive, but unavailable) for longer than MaxAttempts lasts, and a
		// caller deadline keeps the rotation going until it recovers.
		{"replica shedding under a caller deadline", func(t *testing.T, op routerOp) {
			tc := startTestCluster(t, 4, 1, RouterConfig{
				Retry: exec.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
			})
			n := tc.h.Node(0)
			setRefusing := func(v bool) {
				n.mu.Lock()
				n.rebuilding = v
				n.mu.Unlock()
			}
			setRefusing(true)
			if _, _, err := op.ask(ctx, t, tc, tc.g.FullRect()); !errors.Is(err, ErrPartial) {
				t.Fatalf("without a deadline: err = %v, want the budget to exhaust into ErrPartial", err)
			}
			recovered := time.AfterFunc(40*time.Millisecond, func() { setRefusing(false) })
			defer recovered.Stop()
			dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			retries, _, err := op.ask(dctx, t, tc, tc.g.FullRect())
			if err != nil {
				t.Fatalf("with a deadline: %v", err)
			}
			if retries < 2 {
				t.Errorf("answered after %d retries; rotation never went past MaxAttempts", retries)
			}
		}},
		// A router nobody told about two membership changes: one epoch
		// behind sits inside the nodes' grace window (served off the
		// previous map, no gossip needed); two behind draws stale-epoch
		// replies whose attached map carries the router to the newest epoch
		// mid-query, still answering exactly.
		{"stale router after a join", func(t *testing.T, op routerOp) {
			tc := startElasticCluster(t, 3, 2, 1)
			join, err := PlanJoin(tc.h.Map())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Migrate(ctx, MigrateConfig{Plan: join, Endpoints: tc.h.URLs()}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := op.ask(ctx, t, tc, tc.g.FullRect()); err != nil {
				t.Fatalf("one-epoch-stale query: %v", err)
			}
			if got := tc.h.Router().Epoch(); got != 1 {
				t.Fatalf("grace window should not force adoption, router epoch = %d", got)
			}
			leave, err := PlanLeave(join.To, join.Member)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Migrate(ctx, MigrateConfig{Plan: leave, Endpoints: tc.h.URLs()}); err != nil {
				t.Fatal(err)
			}
			_, follows, err := op.ask(ctx, t, tc, tc.g.FullRect())
			if err != nil {
				t.Fatalf("two-epoch-stale query: %v", err)
			}
			if got := tc.h.Router().Epoch(); got != 3 {
				t.Fatalf("router epoch after gossip = %d, want 3", got)
			}
			if follows == 0 {
				t.Error("adoption should be visible as at least one epoch follow")
			}
		}},
		// Maps are born at epoch 1: a leg stamped with epoch 0 is as stale
		// as any other unknown epoch and learns the current map.
		{"leg stamped with epoch 0", func(t *testing.T, op routerOp) {
			tc := startTestCluster(t, 4, 2, RouterConfig{})
			rect := tc.h.Map().Shard(0).Rect
			if err := op.leg(ctx, tc.h.Router(), 0, rect, tc.h.Map().Epoch()); err != nil {
				t.Fatalf("current-epoch leg: %v", err)
			}
			err := op.leg(ctx, tc.h.Router(), 0, rect, 0)
			var stale *StaleEpochError
			if !errors.As(err, &stale) {
				t.Fatalf("epoch-0 leg err = %v, want a *StaleEpochError", err)
			}
			if stale.Map == nil || stale.Map.Epoch() != tc.h.Map().Epoch() || stale.NodeEpoch != tc.h.Map().Epoch() {
				t.Fatalf("stale error %+v does not carry the current map (epoch %d)", stale, tc.h.Map().Epoch())
			}
		}},
	}
	for _, op := range routerOps {
		for _, sc := range scenarios {
			t.Run(op.name+"/"+sc.name, func(t *testing.T) { sc.run(t, op) })
		}
	}
}

// TestRouterHedgingBeatsStraggler is the node-level twin of serve's
// TestHedgingBeatsStraggler: HedgeAfter sits below a healthy round trip,
// so every replica's smoothed latency exceeds it, yet member 0 is a
// straggler two orders of magnitude slower than the replicas of its
// shards. The hedge leg, delay included, beats that straggler, so the
// shared gate must let it race — and it must win.
func TestRouterHedgingBeatsStraggler(t *testing.T) {
	const hedgeAfter = time.Millisecond
	for _, op := range routerOps {
		t.Run(op.name, func(t *testing.T) {
			ctx := context.Background()
			sink := obs.NewSink()
			tc := startTestCluster(t, 4, 2, RouterConfig{
				HedgeAfter: hedgeAfter, NodeDeadline: 5 * time.Second, Obs: sink,
			})
			for n, factor := range []float64{101, 2, 2, 2} { // (factor-1)·2ms: 200ms, then 2ms each
				if err := tc.h.Faults().SetNodeSlow(n, factor); err != nil {
					t.Fatal(err)
				}
			}
			// Warm every member's EWMA with raw legs: in a hedged query the
			// straggler's leg loses its race and leaves no sample. The router
			// puts a lead so overtaken on probation instead — later queries
			// lead with its replica — which steers but teaches the gate nothing.
			rt, sm := tc.h.Router(), tc.h.Map()
			for n := 0; n < 4; n++ {
				rect := sm.Shard(sm.HostedShardsOfMember(n)[0]).Rect
				if err := op.leg(ctx, rt, n, rect, sm.Epoch()); err != nil {
					t.Fatalf("warm-up leg to member %d: %v", n, err)
				}
			}
			slow := rt.Breakers().EWMALatency(0)
			for n := 1; n < 4; n++ {
				if l := rt.Breakers().EWMALatency(n); l <= hedgeAfter || slow < 10*l {
					t.Fatalf("member %d EWMA %v, straggler %v, hedge delay %v: not the scenario under test", n, l, slow, hedgeAfter)
				}
			}
			start := time.Now()
			if _, _, err := op.ask(ctx, t, tc, tc.g.FullRect()); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
				t.Errorf("took %v; the 200ms straggler's latency leaked through", elapsed)
			}
			reg := sink.Registry()
			if hedges, wins := reg.Counter("cluster.router.hedges").Value(), reg.Counter("cluster.router.hedgewins").Value(); hedges == 0 || wins == 0 {
				t.Errorf("%d hedges issued, %d won against a straggler the hedge leg beats", hedges, wins)
			}
		})
	}
}

// A hedged attempt whose legs both failed reports what the retry loop
// most needs to know: a stale epoch (it carries the newer map) beats
// everything, and "one replica is merely busy" beats "the other is
// down", whichever leg drew which.
func TestDoublyFailedAttemptPrefersLegError(t *testing.T) {
	stale := &StaleEpochError{NodeEpoch: 7}
	busy := fmt.Errorf("%w: node 1", errNodeTimeout)
	down := errors.New("EOF")
	for _, tc := range []struct{ primary, backup, want error }{
		{busy, stale, stale},
		{stale, busy, stale},
		{down, busy, busy},
		{busy, down, busy},
		{down, errors.New("connection refused"), down},
	} {
		leg := func(_ context.Context, node int, _ bool) (*recordPage, error) {
			if node == 0 {
				return nil, tc.primary
			}
			return nil, tc.backup
		}
		var r hedge.Racer[*recordPage]
		_, _, _, err := r.Race(context.Background(), hedge.Now(), time.Hour, 0, 1, leg, preferLegError)
		r.Release()
		if err != tc.want {
			t.Errorf("primary %v, backup %v: reported %v, want %v", tc.primary, tc.backup, err, tc.want)
		}
	}
}

// TestRouterCancellationNoLeak checks that context cancellation promptly
// aborts all in-flight sub-queries and hedge legs against blackholed
// nodes, leaking no goroutines — on either side of the wire.
func TestRouterCancellationNoLeak(t *testing.T) {
	for _, op := range routerOps {
		t.Run(op.name, func(t *testing.T) {
			tc := startTestCluster(t, 4, 2, RouterConfig{
				NodeDeadline: 10 * time.Second, // deliberately huge: only cancel ends the legs
				HedgeAfter:   5 * time.Millisecond,
				Retry:        exec.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
			})
			// Both replicas of every shard blackholed: queries can only hang.
			for n := 0; n < 4; n++ {
				tc.h.Faults().Partition(n)
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, _, err := op.ask(ctx, t, tc, tc.g.FullRect())
				done <- err
			}()
			time.Sleep(50 * time.Millisecond) // let legs and hedges get in flight
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("returned %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("did not return promptly after cancel")
			}
			// Goroutines must settle back: poll briefly, allowing scheduler
			// slack but no persistent leak.
			deadline := time.Now().Add(2 * time.Second)
			for {
				runtime.GC()
				now := runtime.NumGoroutine()
				if now <= before+2 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after cancel", before, now)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestNodeAggregateRefusesPendingEpoch stages a leave's To map on a
// member that gains buckets in it, with nothing ingested yet, and asks
// its aggregate endpoint at the pending epoch: over a rect the member
// holds under both maps the answer equals the current epoch's, and a
// rect taking in a gained bucket is refused as unavailable — never
// answered low.
func TestNodeAggregateRefusesPendingEpoch(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	cur := tc.h.Map()
	plan, err := PlanLeave(cur, 3)
	if err != nil {
		t.Fatal(err)
	}
	dest := plan.Moves[0].Dest
	gained := tc.g.Delinearize(plan.Moves[0].Buckets[0], nil)
	var held grid.Rect
	for _, s := range cur.HostedShardsOfMember(dest) {
		if r := cur.Shard(s).Rect; tc.g.EachBucket(r, func(b int) bool { return plan.To.Holds(dest, b) }) {
			held = r
			break
		}
	}
	if held.Lo == nil {
		t.Fatalf("member %d keeps no whole shard through the leave: not the scenario under test", dest)
	}
	n := tc.h.Node(dest)
	n.mu.Lock()
	n.pending = plan.To
	n.mu.Unlock()

	ctx := context.Background()
	sum := func(rect grid.Rect, epoch uint64) (*aggregateResponse, error) {
		q := aggregate.AggregateQuery{Rect: rect, Op: aggregate.OpSum, Attr: 1}
		return callNode(ctx, tc.h.Router(), aggregateOp(q), dest, []grid.Rect{rect}, epoch)
	}
	want, err := sum(held, cur.Epoch())
	if err != nil {
		t.Fatalf("current-epoch aggregate: %v", err)
	}
	got, err := sum(held, plan.To.Epoch())
	if err != nil {
		t.Fatalf("pending-epoch aggregate over held buckets: %v", err)
	}
	if got.Count != want.Count || got.Sum != want.Sum || want.Count == 0 {
		t.Fatalf("pending-epoch aggregate over %v: count %d sum %g, current epoch count %d sum %g",
			held, got.Count, got.Sum, want.Count, want.Sum)
	}
	inFlight := grid.Rect{Lo: gained, Hi: gained.Clone()}
	if _, err := sum(inFlight, plan.To.Epoch()); !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("pending-epoch aggregate over un-ingested %v: err = %v, want ErrUnavailable", inFlight, err)
	}
}

// TestNodeAggregateIndexBesideInserts runs aggregate legs to a member
// while it ingests /v1/migrate/bucket pages for a staged leave. The
// aggregate index's staleness check reads the live file's record count,
// which the inserts write, so it must read it under the node's lock
// (-race). The legs and pages go straight to the node's handlers: over
// sockets, every write and read of a body would order the two
// goroutines for the race detector and hide the conflict. Each leg
// covers all the shards the member hosts at the current epoch, so its
// count lies between the node's record counts before and after the
// inserts.
func TestNodeAggregateIndexBesideInserts(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	cur := tc.h.Map()
	plan, err := PlanLeave(cur, 3)
	if err != nil {
		t.Fatal(err)
	}
	dest := plan.Moves[0].Dest
	n := tc.h.Node(dest)
	req := readRequest{Kind: byte(aggregate.OpCount) + 1, Epoch: cur.Epoch()}
	for _, s := range cur.HostedShardsOfMember(dest) {
		req.Rects = append(req.Rects, cur.Shard(s).Rect)
	}
	body, err := req.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := n.Records()
	n.mu.Lock()
	n.pending = plan.To
	n.mu.Unlock()

	inserted := make(chan struct{})
	stop := sync.OnceFunc(func() { close(inserted) })
	defer stop()
	legs := make(chan error, 1)
	var counts []int64
	go func() {
		for done := false; !done || len(counts) < 8; {
			select {
			case <-inserted:
				done = true
			default:
			}
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/aggregate", bytes.NewReader(body))
			r.Header.Set("Content-Type", requestContentType)
			n.handleAggregate(rec, r)
			var a aggregateResponse
			if err := a.decode(rec.Header().Get("Content-Type"), rec.Body.Bytes()); err != nil {
				legs <- fmt.Errorf("leg answered %d %q: %w", rec.Code, rec.Body.String(), err)
				return
			}
			counts = append(counts, a.Count)
		}
		legs <- nil
	}()
	for _, mv := range plan.Moves {
		if mv.Dest != dest {
			continue
		}
		for _, b := range mv.Buckets {
			page, contentType, err := encodeBody(&recordPage{Epoch: plan.To.Epoch(), Buckets: 1, Cell: tc.g.Delinearize(b, nil), Records: tc.ref.Bucket(b)})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/migrate/bucket", bytes.NewReader(page))
			r.Header.Set("Content-Type", contentType)
			n.handleMigrateBucket(rec, r)
			if rec.Code != http.StatusOK {
				t.Fatalf("ingest bucket %d: %d %s", b, rec.Code, rec.Body.String())
			}
		}
	}
	stop()
	if err := <-legs; err != nil {
		t.Fatal(err)
	}
	after := n.Records()
	if after <= before {
		t.Fatalf("node %d holds %d records after the inserts, %d before: nothing was ingested", dest, after, before)
	}
	for i, c := range counts {
		if c < int64(before) || c > int64(after) {
			t.Fatalf("leg %d counted %d records, want within [%d, %d]", i, c, before, after)
		}
	}
}
