package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/grid"
)

// materialisedMerge is gather's oracle: decode every answered page whole,
// cut its records into bucket runs by its counts (its sub-rectangle's
// buckets, row-major), then concatenate the runs of q's buckets in
// row-major order.
func materialisedMerge(t *testing.T, g *grid.Grid, q grid.Rect, subs []SubQuery, bodies [][]byte) []datagen.Record {
	t.Helper()
	runs := map[int][]datagen.Record{}
	for i, body := range bodies {
		if body == nil {
			continue
		}
		var p recordPage
		if err := p.decode(frameContentType, body); err != nil {
			t.Fatal(err)
		}
		recs := p.Records
		for j, b := range g.AppendRect(nil, subs[i].Rect) {
			runs[b], recs = recs[:p.Counts[j]], recs[p.Counts[j]:]
		}
	}
	var all []datagen.Record
	for _, b := range g.AppendRect(nil, q) {
		all = append(all, runs[b]...)
	}
	return all
}

// randomTiling cuts r into rectangles by guillotine cuts on random axes,
// as a shard map's tiles cut a query.
func randomTiling(rng *rand.Rand, r grid.Rect, depth int) []grid.Rect {
	axis := rng.Intn(r.K())
	if depth == 0 || rng.Intn(4) == 0 || r.Side(axis) < 2 {
		return []grid.Rect{r}
	}
	cut := r.Lo[axis] + 1 + rng.Intn(r.Side(axis)-1)
	a, b := grid.Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}, grid.Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
	a.Hi[axis], b.Lo[axis] = cut-1, cut
	return append(randomTiling(rng, a, depth-1), randomTiling(rng, b, depth-1)...)
}

// TestGatherMatchesMaterialisedMerge: over seeded random queries on 1-, 2-
// and 3-axis grids, cut into sub-rectangles listed in shuffled order, with
// empty buckets, legs of different k and failed legs, walking the legs'
// counts in place yields bit for bit what materialising every page and
// concatenating its bucket runs row-major does, with every record's
// Values capped at its own.
func TestGatherMatchesMaterialisedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ {
		dims := make([]int, 1+round%3)
		for i := range dims {
			dims[i] = 1 + rng.Intn(9)
		}
		g := grid.MustNew(dims...)
		lo, hi := make(grid.Coord, len(dims)), make(grid.Coord, len(dims))
		for i, d := range dims {
			lo[i] = rng.Intn(d)
			hi[i] = lo[i] + rng.Intn(d-lo[i])
		}
		q := g.MustRect(lo, hi)
		tiles := randomTiling(rng, q, 4)
		rng.Shuffle(len(tiles), func(i, j int) { tiles[i], tiles[j] = tiles[j], tiles[i] })
		subs := make([]SubQuery, len(tiles))
		bodies := make([][]byte, len(tiles))
		outs := make([]subOutcome[pageLeg], len(tiles))
		for leg, tile := range tiles {
			subs[leg] = SubQuery{Shard: leg, Rect: tile}
			if rng.Intn(5) == 0 {
				outs[leg].err = errors.New("leg lost")
				continue
			}
			counts, n := make([]int, tile.Volume()), 0
			for b := range counts {
				if rng.Intn(3) > 0 { // a third of the buckets stay empty
					counts[b] = rng.Intn(6)
					n += counts[b]
				}
			}
			page := randomPage(rng, n, 1+rng.Intn(3))
			page.Buckets, page.Counts = tile.Volume(), counts
			bodies[leg] = framePage(t, page)
			view, err := parseFrame(frameContentType, bodies[leg])
			if err != nil {
				t.Fatal(err)
			}
			outs[leg].resp = &pageLeg{frame: view}
		}
		want := materialisedMerge(t, g, q, subs, bodies)
		got := gather(q, subs, outs)
		if len(got) != len(want) {
			t.Fatalf("round %d: gathered %d records, oracle %d", round, len(got), len(want))
		}
		for i := range want {
			if !sameRecord(got[i], want[i]) || cap(got[i].Values) != len(got[i].Values) {
				t.Fatalf("round %d: record %d = %+v (cap %d), oracle %+v", round, i, got[i], cap(got[i].Values), want[i])
			}
		}
	}
}

// tamper serves h, passing every answer through except a 200 record frame
// on path, which it decodes, hands to edit and frames again.
func tamper(t *testing.T, h http.Handler, path string, edit func(p *recordPage)) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var p recordPage
		if r.URL.Path == path && rec.Code == http.StatusOK && p.decode(rec.Header().Get("Content-Type"), rec.Body.Bytes()) == nil {
			edit(&p)
			data, err := p.appendTo(nil)
			if err != nil {
				t.Error(err)
			}
			w.Header().Set("Content-Type", frameContentType)
			_, _ = w.Write(data)
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

// TestRouterRetriesMalformedLeg: a /v1/query answer gather cannot walk —
// one without counts, or counting buckets of a rect other than the one
// asked for — fails its leg, which the router retries on a replica, so
// the answer stays the reference's, in order, and none of it came from
// the member answering malformed frames.
func TestRouterRetriesMalformedLeg(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	for name, edit := range map[string]func(p *recordPage){
		"uncounted":      func(p *recordPage) { p.Counts = nil },
		"buckets differ": func(p *recordPage) { p.Buckets, p.Counts = p.Buckets+1, append(p.Counts, 0) },
	} {
		urls := tc.h.URLs()
		urls[0] = tamper(t, tc.h.Node(0).Handler(), "/v1/query", edit)
		rt, err := NewRouter(RouterConfig{Map: tc.h.Map(), Endpoints: urls, Retry: exec.RetryPolicy{MaxAttempts: 3}})
		if err != nil {
			t.Fatal(err)
		}
		retries := 0
		for _, q := range testQueries(tc.g) {
			res, err := rt.Search(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: query %v: %v", name, q, err)
			}
			if got, want := resultIDs(res), tc.refIDs(t, q); !equalInts(got, want) {
				t.Fatalf("%s: query %v: %d records, reference %d (or order differs)", name, q, len(got), len(want))
			}
			if res.PerNode[0] != 0 {
				t.Errorf("%s: query %v: member 0's malformed answers were gathered", name, q)
			}
			retries += res.Retries
		}
		if retries == 0 {
			t.Errorf("%s: no leg was retried", name)
		}
	}
}

// sameRecord reports whether a and b carry the same ID and the same
// value bit patterns (NaN payloads and signed zeros included).
func sameRecord(a, b datagen.Record) bool {
	if a.ID != b.ID || len(a.Values) != len(b.Values) {
		return false
	}
	for j, v := range a.Values {
		if math.Float64bits(v) != math.Float64bits(b.Values[j]) {
			return false
		}
	}
	return true
}
