package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/replica"
	"decluster/internal/serve"
)

// post sends body to path on h in process and returns the recorded
// answer.
func post(h http.Handler, path, contentType string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	h.ServeHTTP(rec, r)
	return rec
}

// queryBody encodes a /v1/query read of rect at epoch.
func queryBody(t testing.TB, rect grid.Rect, epoch uint64) []byte {
	t.Helper()
	body, err := (&readRequest{Epoch: epoch, Rects: []grid.Rect{rect}}).appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// cellRect is the one-bucket rect of g's bucket b.
func cellRect(g *grid.Grid, b int) grid.Rect {
	c := g.Delinearize(b, nil)
	return grid.Rect{Lo: c, Hi: c.Clone()}
}

// TestPageFrameMatchesFlattenedFrame: for the same rect, the frame a
// node's /v1/query answers — encoded from the executor's bucket pages —
// is byte for byte the frame encoded from the flattened Result of the
// same scheduler. The cases: a healthy read; a degraded one, with a
// failed disk whose buckets fail over to their replicas; a rect with
// empty buckets; one bucket, holding records or none. The page answer
// itself leaves Records empty, its pages are RecordsPerBucket long, and
// Release drops them.
func TestPageFrameMatchesFlattenedFrame(t *testing.T) {
	g := grid.MustNew(16, 16)
	m, err := alloc.NewHCAM(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replica.NewChained(m)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{FailDisks: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewChainShardMap(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 300 records over 256 buckets: about a third of them stay empty. The
	// one-bucket case reads a bucket of the failed disk.
	recs := datagen.Uniform{K: 2, Seed: 11}.Generate(300)
	newNode := func(opts ...serve.Option) *Node {
		n, err := NewNode(NodeConfig{ID: 0, Map: sm, Method: m, Records: recs, ServeOptions: opts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	healthy, degraded := newNode(), newNode(serve.WithFaults(inj), serve.WithFailover(rep))
	full, empty := -1, -1
	for b := range g.Buckets() {
		if healthy.file.BucketLen(b) > 0 && healthy.file.DiskOf(b) == 3 && full < 0 {
			full = b
		}
		if healthy.file.BucketLen(b) == 0 && empty < 0 {
			empty = b
		}
	}
	if full < 0 || empty < 0 {
		t.Fatal("the fixture has no bucket holding records, or no empty one")
	}
	whole := g.MustRect(grid.Coord{0, 0}, grid.Coord{15, 15})
	for _, c := range []struct {
		name string
		n    *Node
		rect grid.Rect
	}{
		{"healthy", healthy, whole},
		{"degraded", degraded, whole},
		{"empty buckets", healthy, g.MustRect(grid.Coord{2, 3}, grid.Coord{9, 7})},
		{"one bucket", degraded, cellRect(g, full)},
		{"one empty bucket", healthy, cellRect(g, empty)},
	} {
		ctx := context.Background()
		flat, err := c.n.sched.Do(ctx, serve.Query{Rect: c.rect})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := framePage(t, &recordPage{Epoch: sm.Epoch(), Buckets: c.rect.Volume(), Degraded: flat.Degraded, Counts: flat.RecordsPerBucket, Records: flat.Records})
		flat.Release()
		rec := post(c.n.Handler(), "/v1/query", requestContentType, queryBody(t, c.rect, sm.Epoch()))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: the node answered %d with %d bytes, not the %d-byte frame of the flattened Result", c.name, rec.Code, rec.Body.Len(), len(want))
		}

		res, err := c.n.sched.DoPages(ctx, serve.Query{Rect: c.rect})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		switch {
		case len(res.Records) != 0:
			t.Errorf("%s: DoPages left %d records", c.name, len(res.Records))
		case len(res.Pages) != c.rect.Volume() || len(res.RecordsPerBucket) != c.rect.Volume():
			t.Errorf("%s: %d pages and %d counts for %d buckets", c.name, len(res.Pages), len(res.RecordsPerBucket), c.rect.Volume())
		case c.n == degraded && (!res.Degraded || res.Rerouted == 0):
			t.Errorf("%s: degraded %v with %d buckets rerouted", c.name, res.Degraded, res.Rerouted)
		case c.n == healthy && res.Degraded:
			t.Errorf("%s: a healthy read reads degraded", c.name)
		case c.rect.Volume() > 1 && !slices.Contains(res.RecordsPerBucket, 0):
			t.Errorf("%s: no empty bucket in the rect", c.name)
		}
		for i, page := range res.Pages {
			if len(page) != res.RecordsPerBucket[i] {
				t.Errorf("%s: page %d holds %d records, counted %d", c.name, i, len(page), res.RecordsPerBucket[i])
			}
		}
		got := framePage(t, &recordPage{Epoch: sm.Epoch(), Buckets: c.rect.Volume(), Degraded: res.Degraded, Counts: res.RecordsPerBucket, Pages: res.Pages})
		res.Release()
		if res.Pages != nil {
			t.Errorf("%s: Release kept %d pages", c.name, len(res.Pages))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the frame from pages differs from the frame from the flattened Result", c.name)
		}
	}
}

// TestNodeQueryPagesBesideIngests runs /v1/query legs through a member's
// handler while it ingests /v1/migrate/bucket pages for a staged leave.
// A leg's frame is encoded from views of the live file the ingests write
// into; the views stay valid because an ingest writes only buckets no
// served epoch reads yet. The legs go straight to Node.Handler: over
// sockets, every write and read of a body would order the goroutines for
// the race detector and hide a conflict. Three queriers read the shards
// the member serves at the current epoch — on one scheduler, so a page
// answer that aliased pooled query state would be overwritten under its
// encoder; a fourth reads, one bucket at a time at the pending epoch,
// the buckets being moved in, which answer unavailable until their page
// is in. Every answer is the single-node oracle's, counts and order
// included.
func TestNodeQueryPagesBesideIngests(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	cur := tc.h.Map()
	plan, err := PlanLeave(cur, 3)
	if err != nil {
		t.Fatal(err)
	}
	dest := plan.Moves[0].Dest
	h := tc.h.Node(dest).Handler()
	var served []grid.Rect
	for _, s := range cur.HostedShardsOfMember(dest) {
		served = append(served, cur.Shard(s).Rect)
	}
	var moved []int
	for _, mv := range plan.Moves {
		if mv.Dest == dest {
			moved = append(moved, mv.Buckets...)
		}
	}
	query := func(rect grid.Rect, epoch uint64) error {
		rec := post(h, "/v1/query", requestContentType, queryBody(t, rect, epoch))
		if rec.Code != http.StatusOK {
			return decodeErrorBody(rec.Code, rec.Body.Bytes())
		}
		var p recordPage
		if err := p.decode(rec.Header().Get("Content-Type"), rec.Body.Bytes()); err != nil {
			return err
		}
		got := p.Records
		for i, b := range tc.g.AppendRect(nil, rect) {
			want := tc.ref.Bucket(b)
			if p.Counts[i] != len(want) || len(got) < len(want) {
				return fmt.Errorf("%v at epoch %d: bucket %d counted %d records, the oracle holds %d", rect, epoch, b, p.Counts[i], len(want))
			}
			for j := range want {
				if !sameRecord(got[j], want[j]) {
					return fmt.Errorf("%v at epoch %d: bucket %d record %d = %+v, the oracle's %+v", rect, epoch, b, j, got[j], want[j])
				}
			}
			got = got[len(want):]
		}
		if len(got) != 0 {
			return fmt.Errorf("%v at epoch %d: %d records past the oracle's", rect, epoch, len(got))
		}
		return nil
	}

	prep, err := json.Marshal(prepareRequest{Map: toWireMap(plan.To)})
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(h, "/v1/migrate/prepare", "application/json", prep); rec.Code != http.StatusOK {
		t.Fatalf("prepare: %d %s", rec.Code, rec.Body)
	}
	ingested := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	querier := func(leg func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-ingested:
					if i >= 16 {
						return
					}
				default:
				}
				if err := leg(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for range 3 {
		querier(func(i int) error { return query(served[i%len(served)], cur.Epoch()) })
	}
	querier(func(i int) error {
		if err := query(cellRect(tc.g, moved[i%len(moved)]), plan.To.Epoch()); !errors.Is(err, fault.ErrUnavailable) {
			return err
		}
		return nil
	})
	for _, b := range moved {
		page := framePage(t, &recordPage{Epoch: plan.To.Epoch(), Buckets: 1, Cell: tc.g.Delinearize(b, nil), Records: tc.ref.Bucket(b)})
		if rec := post(h, "/v1/migrate/bucket", frameContentType, page); rec.Code != http.StatusOK {
			t.Errorf("ingest bucket %d: %d %s", b, rec.Code, rec.Body)
		}
	}
	close(ingested)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, b := range moved {
		if err := query(cellRect(tc.g, b), plan.To.Epoch()); err != nil {
			t.Errorf("after the ingests: %v", err)
		}
	}
}
