package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"decluster/internal/batch"
	"decluster/internal/grid"
)

// TestClusterAggregate scatters aggregate queries across a replicated
// cluster and checks the merged answers against the single-node
// reference file, for every op, over the full wire path.
func TestClusterAggregate(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	rt := tc.h.Router()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))

	naive := func(r grid.Rect, attr int) (count int64, sum, lo, hi float64) {
		rs, err := tc.ref.CellRangeSearch(r)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, rec := range rs.Records {
			v := rec.Values[attr]
			count++
			sum += v
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return
	}

	for i := 0; i < 25; i++ {
		w, h := 1+rng.Intn(8), 1+rng.Intn(8)
		x, y := rng.Intn(tc.g.Dim(0)-w+1), rng.Intn(tc.g.Dim(1)-h+1)
		r := tc.g.MustRect(grid.Coord{x, y}, grid.Coord{x + w - 1, y + h - 1})
		attr := rng.Intn(2)
		count, sum, lo, hi := naive(r, attr)

		for _, op := range []batch.AggregateOp{batch.OpCount, batch.OpSum, batch.OpMin, batch.OpMax} {
			res, err := rt.Aggregate(ctx, batch.AggregateQuery{Rect: r, Op: op, Attr: attr})
			if err != nil {
				t.Fatalf("%v over %v: %v", op, r, err)
			}
			if res.Count != count {
				t.Fatalf("%v over %v: Count = %d, want %d", op, r, res.Count, count)
			}
			if res.Buckets != r.Volume() {
				t.Fatalf("%v over %v: Buckets = %d, want %d", op, r, res.Buckets, r.Volume())
			}
			if op == batch.OpSum && math.Abs(res.Sum-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
				t.Fatalf("sum over %v attr %d: %g, want %g", r, attr, res.Sum, sum)
			}
			if count > 0 {
				if op == batch.OpMin && res.Min != lo {
					t.Fatalf("min over %v attr %d: %g, want %g", r, attr, res.Min, lo)
				}
				if op == batch.OpMax && res.Max != hi {
					t.Fatalf("max over %v attr %d: %g, want %g", r, attr, res.Max, hi)
				}
			}
			if res.Epoch != tc.h.Map().Epoch() {
				t.Fatalf("aggregate answered at epoch %d, map at %d", res.Epoch, tc.h.Map().Epoch())
			}
		}
	}
}
