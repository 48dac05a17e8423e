package cluster

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"decluster/internal/aggregate"
	"decluster/internal/exec"
	"decluster/internal/grid"
)

// tamperAggregate serves h, passing every answer through except a 200
// aggregate answer, which it decodes, hands to edit and encodes again.
func tamperAggregate(t *testing.T, h http.Handler, edit func(a *aggregateResponse)) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var a aggregateResponse
		if rec.Code == http.StatusOK && a.decode(rec.Header().Get("Content-Type"), rec.Body.Bytes()) == nil {
			edit(&a)
			writePage(w, &a)
			return
		}
		for key, vals := range rec.Header() {
			w.Header()[key] = vals
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRouterRetriesMalformedAggregateLeg: an aggregate answer for another
// op, or over another number of buckets than its rect holds, fails its
// leg like a bad body. The router retries it on a replica, so every merged
// answer stays the healthy cluster's. Each tampering also miscounts, so
// merging a single tampered leg would show in Count.
func TestRouterRetriesMalformedAggregateLeg(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	ctx := context.Background()
	for name, edit := range map[string]func(a *aggregateResponse){
		"op differs": func(a *aggregateResponse) {
			a.Op, a.Count, a.Sum, a.Min, a.Max = (a.Op+1)%(aggregate.OpMax+1), a.Count+1, a.Sum+1, a.Max, a.Min-1
		},
		"buckets differ": func(a *aggregateResponse) { a.Buckets, a.Count = a.Buckets+1, a.Count+1 },
	} {
		urls := tc.h.URLs()
		urls[0] = tamperAggregate(t, tc.h.Node(0).Handler(), edit)
		rt, err := NewRouter(RouterConfig{Map: tc.h.Map(), Endpoints: urls, Retry: exec.RetryPolicy{MaxAttempts: 3}})
		if err != nil {
			t.Fatal(err)
		}
		retries := 0
		for _, r := range testQueries(tc.g) {
			for _, op := range []aggregate.AggregateOp{aggregate.OpCount, aggregate.OpSum, aggregate.OpMin, aggregate.OpMax} {
				q := aggregate.AggregateQuery{Rect: r, Op: op, Attr: 1}
				got, err := rt.Aggregate(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v over %v: %v", name, op, r, err)
				}
				want, err := tc.h.Router().Aggregate(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Op != op || got.Count != want.Count || got.Buckets != want.Buckets ||
					math.Abs(got.Sum-want.Sum) > 1e-9*math.Max(1, math.Abs(want.Sum)) ||
					(want.Count > 0 && (got.Min != want.Min || got.Max != want.Max)) {
					t.Fatalf("%s: %v over %v: %+v, healthy cluster %+v", name, op, r, got.AggregateResult, want.AggregateResult)
				}
				retries += got.Retries
			}
		}
		if retries == 0 {
			t.Errorf("%s: no leg was retried", name)
		}
	}
}

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

		for _, op := range []aggregate.AggregateOp{aggregate.OpCount, aggregate.OpSum, aggregate.OpMin, aggregate.OpMax} {
			res, err := rt.Aggregate(ctx, aggregate.AggregateQuery{Rect: r, Op: op, Attr: attr})
			if err != nil {
				t.Fatalf("%v over %v: %v", op, r, err)
			}
			if res.Count != count {
				t.Fatalf("%v over %v: Count = %d, want %d", op, r, res.Count, count)
			}
			if res.Buckets != r.Volume() {
				t.Fatalf("%v over %v: Buckets = %d, want %d", op, r, res.Buckets, r.Volume())
			}
			if op == aggregate.OpSum && math.Abs(res.Sum-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
				t.Fatalf("sum over %v attr %d: %g, want %g", r, attr, res.Sum, sum)
			}
			if count > 0 {
				if op == aggregate.OpMin && res.Min != lo {
					t.Fatalf("min over %v attr %d: %g, want %g", r, attr, res.Min, lo)
				}
				if op == aggregate.OpMax && res.Max != hi {
					t.Fatalf("max over %v attr %d: %g, want %g", r, attr, res.Max, hi)
				}
			}
			if res.Epoch != tc.h.Map().Epoch() {
				t.Fatalf("aggregate answered at epoch %d, map at %d", res.Epoch, tc.h.Map().Epoch())
			}
		}
	}
}
