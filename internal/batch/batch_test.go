// The engine tests live in an external package so they can wire the
// production read path — serve.Scheduler.DoBuckets — without a cycle
// (batch deliberately does not import serve).
package batch_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"decluster/internal/aggregate"
	"decluster/internal/alloc"
	"decluster/internal/batch"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
	"decluster/internal/replica"
	"decluster/internal/serve"
)

// fixture is the full stack under one grid file: scheduler for the
// unbatched control path, engine for the batched path, sink for the
// obs assertions.
type fixture struct {
	g     *grid.Grid
	f     *gridfile.File
	sched *serve.Scheduler
	eng   *batch.Engine
	sink  *obs.Sink
	inj   *fault.Injector
}

// newFixture builds a 12×12 grid over 4 disks with 2000 records. With
// chaos it adds transient faults, a straggler, and chained-replica
// failover, with retries generous enough that every read eventually
// succeeds — the differential tests compare payloads, so shed/failed
// outcomes are kept out by construction (no tight queue, no breaker).
func newFixture(t testing.TB, chaos bool, engOpts ...batch.Option) *fixture {
	t.Helper()
	return newGridFixture(t, grid.MustNew(12, 12), chaos, engOpts...)
}

// newGridFixture is newFixture over the grid g, HCAM-allocated to 4
// disks, with 2000 uniform records of g's dimensionality.
func newGridFixture(t testing.TB, g *grid.Grid, chaos bool, engOpts ...batch.Option) *fixture {
	t.Helper()
	m, err := alloc.NewHCAM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := gridfile.New(gridfile.Config{Method: m, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(datagen.Uniform{K: g.K(), Seed: 11}.Generate(2000)); err != nil {
		t.Fatal(err)
	}

	sink := obs.NewSink()
	opts := []serve.Option{
		serve.WithAdmission(serve.AdmissionConfig{MaxInFlight: 8, MaxQueue: 256}),
		serve.WithDrainTimeout(10 * time.Second),
		serve.WithObserver(sink),
	}
	fx := &fixture{g: g, f: f, sink: sink}
	if chaos {
		rep, err := replica.NewChained(m)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := fault.New(fault.Config{
			Seed:          31,
			TransientProb: 0.2,
			Stragglers:    map[int]float64{2: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		inj.FlipDisks([]int{1}, nil) // disk 1 down: every read reroutes
		fx.inj = inj
		opts = append(opts,
			serve.WithFaults(inj),
			serve.WithFailover(rep),
			serve.WithRetry(exec.RetryPolicy{MaxAttempts: 10, BaseBackoff: 20 * time.Microsecond, MaxBackoff: time.Millisecond}),
			serve.WithBaseLatency(50*time.Microsecond),
		)
	}
	sched, err := serve.New(f, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fx.sched = sched
	run := func(ctx context.Context, buckets []int, prio int) (*exec.Result, error) {
		return sched.DoBuckets(ctx, serve.BucketQuery{Buckets: buckets, Priority: prio})
	}
	engOpts = append([]batch.Option{batch.WithObserver(sink)}, engOpts...)
	eng, err := batch.New(f, run, engOpts...)
	if err != nil {
		t.Fatal(err)
	}
	fx.eng = eng
	t.Cleanup(func() {
		fx.eng.Close()
		fx.sched.Close()
	})
	return fx
}

// rects returns nr pseudo-random query rectangles drawn from a small
// pool so concurrent submissions overlap heavily.
func rects(g *grid.Grid, seed int64, nr int) []grid.Rect {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]grid.Rect, 8)
	for i := range pool {
		w, h := 1+rng.Intn(5), 1+rng.Intn(5)
		x, y := rng.Intn(g.Dim(0)-w+1), rng.Intn(g.Dim(1)-h+1)
		pool[i] = g.MustRect(grid.Coord{x, y}, grid.Coord{x + w - 1, y + h - 1})
	}
	out := make([]grid.Rect, nr)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// diffBatch issues the rect set through the engine concurrently and
// through the scheduler individually, then requires bit-identical
// record sequences per query.
func diffBatch(t *testing.T, fx *fixture, qs []grid.Rect) {
	t.Helper()
	answers := make([]*batch.Answer, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, r := range qs {
		wg.Add(1)
		go func(i int, r grid.Rect) {
			defer wg.Done()
			answers[i], errs[i] = fx.eng.Search(context.Background(), r)
		}(i, r)
	}
	wg.Wait()
	for i, r := range qs {
		if errs[i] != nil {
			t.Fatalf("batched query %d %v: %v", i, r, errs[i])
		}
		want, err := fx.sched.Do(context.Background(), serve.Query{Rect: r})
		if err != nil {
			t.Fatalf("unbatched query %d %v: %v", i, r, err)
		}
		if !reflect.DeepEqual(answers[i].Records, want.Records) {
			t.Fatalf("query %d %v: batched answer (%d records) differs from unbatched (%d records)",
				i, r, len(answers[i].Records), len(want.Records))
		}
		if answers[i].Buckets != r.Volume() {
			t.Errorf("query %d: Buckets = %d, want %d", i, answers[i].Buckets, r.Volume())
		}
	}
}

func TestBatchDifferentialHealthy(t *testing.T) {
	fx := newFixture(t, false, batch.WithWindow(3*time.Millisecond), batch.WithMaxBatch(8))
	diffBatch(t, fx, rects(fx.g, 1, 24))

	st := fx.eng.Stats()
	if st.Issued != 24 || st.Answered != 24 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 24 issued, 24 answered", st)
	}
	if st.Issued != st.Answered+st.Failed {
		t.Fatalf("Issued %d != Answered %d + Failed %d", st.Issued, st.Answered, st.Failed)
	}
	if st.Demand != st.Physical+st.Deduped+st.Pruned {
		t.Fatalf("Demand %d != Physical %d + Deduped %d + Pruned %d",
			st.Demand, st.Physical, st.Deduped, st.Pruned)
	}
	if st.Deduped == 0 {
		t.Error("overlapping pool produced no dedup savings; batching untested")
	}
}

// TestBatchDifferentialChaos issues one query set under chaos in two
// arrival orders: as drawn (fifo), and with the rectangles most queries
// share issued first (shared-work-first). A group is one bucket-set
// read whichever members joined it first, so both orders must match the
// unbatched path and keep the ledger identity.
func TestBatchDifferentialChaos(t *testing.T) {
	for _, tc := range []struct {
		name  string
		order func([]grid.Rect)
	}{
		{"fifo", func([]grid.Rect) {}},
		{"shared-work-first", sharedFirst},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, true,
				batch.WithWindow(3*time.Millisecond),
				batch.WithMaxBatch(6))
			qs := rects(fx.g, 7, 18)
			tc.order(qs)
			diffBatch(t, fx, qs)
			st := fx.eng.Stats()
			if st.Answered != 18 {
				t.Fatalf("answered %d of 18 under chaos", st.Answered)
			}
			if st.Demand != st.Physical+st.Deduped+st.Pruned {
				t.Fatalf("Demand %d != Physical %d + Deduped %d + Pruned %d",
					st.Demand, st.Physical, st.Deduped, st.Pruned)
			}
		})
	}
}

// sharedFirst reorders qs so the rectangles drawn most often come
// first, keeping draw order within a tie.
func sharedFirst(qs []grid.Rect) {
	n := make(map[string]int, len(qs))
	for _, r := range qs {
		n[r.String()]++
	}
	sort.SliceStable(qs, func(i, j int) bool { return n[qs[i].String()] > n[qs[j].String()] })
}

// TestAggregateMatchesNaive checks every op against the records the
// unbatched path returns, on the square 12×12 fixture and on grids
// where a stride taken from the wrong axis would show: 9×7 (k = 2) and
// 6×5×4 (k = 3).
func TestAggregateMatchesNaive(t *testing.T) {
	for _, dims := range [][]int{{12, 12}, {9, 7}, {6, 5, 4}} {
		g := grid.MustNew(dims...)
		t.Run(g.String(), func(t *testing.T) { aggregateMatchesNaive(t, newGridFixture(t, g, false)) })
	}
}

func aggregateMatchesNaive(t *testing.T, fx *fixture) {
	rng := rand.New(rand.NewSource(42))
	reads := func() uint64 { return fx.sink.Registry().Counter("exec.read.calls").Value() }

	for i := 0; i < 40; i++ {
		from, to := make(grid.Coord, fx.g.K()), make(grid.Coord, fx.g.K())
		for a := range from {
			w := 1 + rng.Intn(min(8, fx.g.Dim(a)))
			from[a] = rng.Intn(fx.g.Dim(a) - w + 1)
			to[a] = from[a] + w - 1
		}
		r := fx.g.MustRect(from, to)
		attr := rng.Intn(fx.g.K())

		// Naive answer from the record-level unbatched path.
		res, err := fx.sched.Do(context.Background(), serve.Query{Rect: r})
		if err != nil {
			t.Fatal(err)
		}
		count := int64(len(res.Records))
		sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
		for _, rec := range res.Records {
			v := rec.Values[attr]
			sum += v
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}

		before := reads()
		for _, tc := range []struct {
			op   aggregate.AggregateOp
			want float64
		}{
			{aggregate.OpCount, float64(count)},
			{aggregate.OpSum, sum},
			{aggregate.OpMin, lo},
			{aggregate.OpMax, hi},
		} {
			agg, err := fx.eng.Aggregate(context.Background(), aggregate.AggregateQuery{Rect: r, Op: tc.op, Attr: attr})
			if err != nil {
				t.Fatalf("%v over %v: %v", tc.op, r, err)
			}
			if agg.Count != count {
				t.Fatalf("%v over %v: Count = %d, want %d", tc.op, r, agg.Count, count)
			}
			if agg.Buckets != r.Volume() {
				t.Fatalf("%v over %v: Buckets = %d, want %d", tc.op, r, agg.Buckets, r.Volume())
			}
			var got float64
			switch tc.op {
			case aggregate.OpCount:
				got = float64(agg.Count)
			case aggregate.OpSum:
				got = agg.Sum
			case aggregate.OpMin:
				got = agg.Min
			case aggregate.OpMax:
				got = agg.Max
			}
			if count == 0 && (tc.op == aggregate.OpMin || tc.op == aggregate.OpMax) {
				continue // extrema undefined on empty rects
			}
			if tc.op == aggregate.OpSum {
				// Per-bucket sums reorder float additions; everything
				// else must be exact.
				if math.Abs(got-tc.want) > 1e-9*math.Max(1, math.Abs(tc.want)) {
					t.Fatalf("%v over %v attr %d: %g, want %g", tc.op, r, attr, got, tc.want)
				}
			} else if got != tc.want {
				t.Fatalf("%v over %v attr %d: %g, want %g", tc.op, r, attr, got, tc.want)
			}
		}
		// The aggregate kernel is disk-free: the exec read counter must
		// not move across the four aggregate calls.
		if after := reads(); after != before {
			t.Fatalf("aggregates performed %d bucket reads, want 0", after-before)
		}
	}

	st := fx.eng.Stats()
	if st.AggIssued != 160 || st.AggAnswered != 160 || st.AggFailed != 0 {
		t.Fatalf("aggregate stats = %+v, want 160/160/0", st)
	}
	agg, err := fx.eng.Aggregate(context.Background(), aggregate.AggregateQuery{Rect: fx.g.FullRect(), Op: aggregate.OpCount})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != int64(fx.f.Len()) {
		t.Fatalf("full-grid count = %d, want %d", agg.Count, fx.f.Len())
	}
}

func TestAggregateMergeAndErrors(t *testing.T) {
	fx := newFixture(t, false)
	// Split the grid in half vertically; merged halves must equal the
	// whole for every op.
	whole := fx.g.FullRect()
	left := fx.g.MustRect(grid.Coord{0, 0}, grid.Coord{5, 11})
	right := fx.g.MustRect(grid.Coord{6, 0}, grid.Coord{11, 11})
	for _, op := range []aggregate.AggregateOp{aggregate.OpCount, aggregate.OpSum, aggregate.OpMin, aggregate.OpMax} {
		q := aggregate.AggregateQuery{Op: op, Attr: 1}
		q.Rect = whole
		want, err := fx.eng.Aggregate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var parts []aggregate.AggregateResult
		for _, r := range []grid.Rect{left, right} {
			q.Rect = r
			p, err := fx.eng.Aggregate(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		got := aggregate.MergeAggregates(op, 1, parts)
		if got.Count != want.Count || got.Buckets != want.Buckets ||
			math.Abs(got.Sum-want.Sum) > 1e-9*math.Abs(want.Sum) ||
			got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("%v: merged halves %+v != whole %+v", op, got, want)
		}
	}

	bad := []aggregate.AggregateQuery{
		{Rect: grid.Rect{Lo: grid.Coord{0}, Hi: grid.Coord{0}}, Op: aggregate.OpCount},
		{Rect: fx.g.MustRect(grid.Coord{0, 0}, grid.Coord{0, 0}), Op: aggregate.OpSum, Attr: 5},
		{Rect: grid.Rect{Lo: grid.Coord{3, 3}, Hi: grid.Coord{2, 2}}, Op: aggregate.OpCount},
	}
	for _, q := range bad {
		if _, err := fx.eng.Aggregate(context.Background(), q); err == nil {
			t.Errorf("aggregate %+v: expected validation error", q)
		}
	}
	st := fx.eng.Stats()
	if st.AggIssued != st.AggAnswered+st.AggFailed {
		t.Fatalf("AggIssued %d != AggAnswered %d + AggFailed %d", st.AggIssued, st.AggAnswered, st.AggFailed)
	}
	if st.AggFailed != uint64(len(bad)) {
		t.Fatalf("AggFailed = %d, want %d", st.AggFailed, len(bad))
	}

	for op, want := range map[aggregate.AggregateOp]string{aggregate.OpCount: "count", aggregate.OpSum: "sum", aggregate.OpMin: "min", aggregate.OpMax: "max"} {
		if got := op.String(); got != want {
			t.Errorf("op %d is named %q, want %q", int(op), got, want)
		}
	}
}

func TestEngineCloseRejectsNewQueries(t *testing.T) {
	fx := newFixture(t, false)
	if _, err := fx.eng.Search(context.Background(), fx.g.MustRect(grid.Coord{0, 0}, grid.Coord{1, 1})); err != nil {
		t.Fatal(err)
	}
	st, err := fx.eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Issued != 1 || st.Answered != 1 {
		t.Fatalf("stats at close = %+v", st)
	}
	if _, err := fx.eng.Search(context.Background(), fx.g.MustRect(grid.Coord{0, 0}, grid.Coord{1, 1})); err != batch.ErrClosed {
		t.Fatalf("post-close search error = %v, want ErrClosed", err)
	}
	if _, err := fx.eng.Close(); err != batch.ErrClosed {
		t.Fatalf("second close error = %v, want ErrClosed", err)
	}
}

// TestEngineAggregateAfterClose requires a closed engine to refuse
// aggregates as it refuses searches, leaving the counters Close
// returned as final.
func TestEngineAggregateAfterClose(t *testing.T) {
	fx := newFixture(t, false)
	q := aggregate.AggregateQuery{Rect: fx.g.MustRect(grid.Coord{0, 0}, grid.Coord{2, 2}), Op: aggregate.OpCount}
	if _, err := fx.eng.Aggregate(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	final, err := fx.eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := fx.eng.Aggregate(context.Background(), q); err != batch.ErrClosed {
		t.Fatalf("post-close aggregate = %+v, %v; want ErrClosed", res, err)
	}
	if st := fx.eng.Stats(); st != final {
		t.Fatalf("counters moved after Close: %+v, Close returned %+v", st, final)
	}
}

// TestEngineDoAfterClose requires a closed engine to refuse a search
// before it counts it: the counters stay as Close returned them.
func TestEngineDoAfterClose(t *testing.T) {
	fx := newFixture(t, false)
	final, err := fx.eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := fx.eng.Do(context.Background(), batch.Query{Rect: fx.g.MustRect(grid.Coord{0, 0}, grid.Coord{1, 1})}); err != batch.ErrClosed {
		t.Fatalf("post-close search = %+v, %v; want ErrClosed", ans, err)
	}
	if st := fx.eng.Stats(); st != final {
		t.Fatalf("counters moved after Close: %+v, Close returned %+v", st, final)
	}
}
