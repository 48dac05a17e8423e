package decluster_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"decluster"
	"decluster/internal/alloc"
	"decluster/internal/grid"
)

// TestResultNoAliasing is the audit of the result-pooling ownership
// rules: a Result a caller holds without releasing must stay immutable
// while (a) other queries churn the executor's pools with Release-driven
// reuse, concurrently, and (b) the file itself grows, reallocating and
// appending to the bucket storage the zero-copy read path serves views
// of. Any aliasing of pooled scratch or bucket storage into
// Result.Records shows up here as a corrupted snapshot — and, under
// -race (CI runs this package with it), as a data race.
func TestResultNoAliasing(t *testing.T) {
	g := grid.MustNew(16, 16)
	m, err := alloc.NewHCAM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decluster.NewGridFile(decluster.GridFileConfig{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(decluster.UniformRecords{K: 2, Seed: 21}.Generate(3000)); err != nil {
		t.Fatal(err)
	}
	e, err := decluster.NewExecutor(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	held, err := e.RangeSearch(ctx, g.MustRect(grid.Coord{2, 2}, grid.Coord{13, 13}))
	if err != nil {
		t.Fatal(err)
	}
	// Deep snapshot of the held result, taken before any churn.
	want := make([][]float64, len(held.Records))
	for i, rec := range held.Records {
		want[i] = append([]float64(nil), rec.Values...)
	}

	// Churn 1: concurrent queries that release their results back to
	// the pool, recycling whatever scratch a buggy merge would have
	// aliased into the held result.
	rects := []decluster.Rect{
		g.MustRect(grid.Coord{0, 0}, grid.Coord{15, 15}),
		g.MustRect(grid.Coord{2, 2}, grid.Coord{13, 13}),
		g.MustRect(grid.Coord{7, 1}, grid.Coord{9, 14}),
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				res, err := e.RangeSearch(ctx, rects[(w+i)%len(rects)])
				if err != nil {
					t.Error(err)
					return
				}
				res.Release()
			}
		}(w)
	}
	wg.Wait()

	// Churn 2: grow the file. The read path serves read-only views of
	// bucket storage; if the merge had kept views instead of copies,
	// these appends would scribble over the held records.
	if err := f.InsertAll(decluster.UniformRecords{K: 2, Seed: 22}.Generate(3000)); err != nil {
		t.Fatal(err)
	}

	if len(held.Records) != len(want) {
		t.Fatalf("held result length changed under churn: %d, want %d", len(held.Records), len(want))
	}
	for i, rec := range held.Records {
		for a, v := range rec.Values {
			if v != want[i][a] {
				t.Fatalf("held record %d attribute %d changed under churn: %v, want %v", i, a, v, want[i][a])
			}
		}
	}
}

// TestResultReleaseIsTerminal pins the double-release contract: Release
// is idempotent, and a second call must not hand the same Result to the
// pool twice (which would let two queries share one Result).
func TestResultReleaseIsTerminal(t *testing.T) {
	g := grid.MustNew(8, 8)
	m, err := alloc.NewHCAM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decluster.NewGridFile(decluster.GridFileConfig{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(decluster.UniformRecords{K: 2, Seed: 9}.Generate(500)); err != nil {
		t.Fatal(err)
	}
	e, err := decluster.NewExecutor(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RangeSearch(context.Background(), g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	res.Release() // must be a no-op, not a second pool put

	// The pool can now hand the released Result to a new query; two
	// back-to-back queries must get distinct live results.
	r1, err := e.RangeSearch(context.Background(), g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.RangeSearch(context.Background(), g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("double release handed one Result to two queries")
	}
	r1.Release()
	r2.Release()
}

// singleFileAnswer is what the single-node executor answers for q over
// recs, order included: the records of one grid file, by CellRangeSearch.
func singleFileAnswer(t *testing.T, m decluster.Method, recs []decluster.Record, q decluster.Rect) []decluster.Record {
	t.Helper()
	f, err := decluster.NewGridFile(decluster.GridFileConfig{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(recs); err != nil {
		t.Fatal(err)
	}
	rs, err := f.CellRangeSearch(q)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Records
}

// sameAnswer fails t unless got is want element for element: the same
// IDs in the same order, the same values.
func sameAnswer(t *testing.T, when string, got, want []decluster.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, the single-file answer has %d", when, len(got), len(want))
	}
	for i, rec := range got {
		if rec.ID != want[i].ID || len(rec.Values) != len(want[i].Values) {
			t.Fatalf("%s: record %d is ID %d with %d values, the single-file answer's is ID %d", when, i, rec.ID, len(rec.Values), want[i].ID)
		}
		for a, v := range rec.Values {
			if v != want[i].Values[a] {
				t.Fatalf("%s: record %d attribute %d = %v, want %v", when, i, a, v, want[i].Values[a])
			}
		}
	}
}

// TestClusterResultNoAliasing extends the audit across the wire. A
// gathered RouterResult is built from record frames: each node encodes
// its answer from a pooled executor result into a pooled buffer and
// releases both; the router reads each leg into a pooled body, decodes
// every record from there into one value slab of the result's own, and
// gives the bodies back. A held result must therefore (a) stay
// identical to the single-file answer, order included, while concurrent
// searches recycle every one of those pools, and (b) keep its records
// apart — appending to one record's Values must reallocate, not write
// into the record decoded next to it.
func TestClusterResultNoAliasing(t *testing.T) {
	g := grid.MustNew(16, 16)
	m, err := alloc.NewHCAM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := decluster.UniformRecords{K: 2, Seed: 21}.Generate(3000)
	sm, err := decluster.NewChainShardMap(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decluster.StartClusterHarness(decluster.ClusterHarnessConfig{Map: sm, Method: m, Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx := context.Background()
	q := g.MustRect(grid.Coord{2, 2}, grid.Coord{13, 13})

	held, err := h.Router().Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(held.Records) == 0 {
		t.Fatal("no records")
	}
	want := singleFileAnswer(t, m, recs, q)
	check := func(when string) {
		t.Helper()
		sameAnswer(t, when, held.Records, want)
	}
	check("as gathered")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if _, err := h.Router().Search(ctx, g.FullRect()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	check("after pool churn")

	for i := range held.Records {
		_ = append(held.Records[i].Values, -1)
	}
	check("after appending to every record's values")
}

// TestClusterHedgedResultNoAliasing is the same audit with losers in
// play: node 2 answers 50 ms late and the router hedges after 3 ms, so
// every search abandons a leg, which ends whenever its cancellation
// reaches it, while four searchers recycle the body and key pools. A
// loser's body is never put back while anything reads it, so the result
// held from the first search stays bit-identical throughout.
func TestClusterHedgedResultNoAliasing(t *testing.T) {
	g := grid.MustNew(16, 16)
	m, err := alloc.NewHCAM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := decluster.UniformRecords{K: 2, Seed: 21}.Generate(3000)
	sm, err := decluster.NewChainShardMap(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decluster.StartClusterHarness(decluster.ClusterHarnessConfig{
		Map: sm, Method: m, Records: recs, SlowUnit: 5 * time.Millisecond,
		Router: decluster.RouterConfig{HedgeAfter: 3 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Faults().SetNodeSlow(2, 11); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	held, err := h.Router().Search(ctx, g.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if len(held.Records) != len(recs) || held.Hedges == 0 {
		t.Fatalf("%d of %d records over %d hedges; want all of them, some hedged", len(held.Records), len(recs), held.Hedges)
	}
	want := singleFileAnswer(t, m, recs, g.FullRect())
	check := func(when string) {
		t.Helper()
		sameAnswer(t, when, held.Records, want)
	}
	check("as gathered")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if _, err := h.Router().Search(ctx, g.FullRect()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	check("after hedged pool churn")
}
