package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/aggregate"
	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/grid"
)

// framePage frames p or fails the test.
func framePage(t testing.TB, p *recordPage) []byte {
	t.Helper()
	data, err := p.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// edgeIDs and edgeValues are what JSON could not carry, or carried only
// by luck: IDs past 2³² and below zero, signed zeros, subnormals, NaN
// payloads and infinities. A frame carries every one of them bit-exact.
var (
	edgeIDs    = []int{0, -1, 1, math.MinInt, math.MaxInt, 1 << 32, 1<<32 + 1, -(1 << 40)}
	edgeValues = []uint64{
		0, 1 << 63, // ±0
		1, 1<<63 | 1, 0x000fffffffffffff, // subnormals
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, // quiet and signalling NaNs
		math.Float64bits(math.MaxFloat64), math.Float64bits(math.SmallestNonzeroFloat64),
	}
)

// randomPage draws a page of n records of k values, edge cases mixed in
// with uniform noise; half the pages are counted, their records spread
// over a few buckets, some empty.
func randomPage(rng *rand.Rand, n, k int) *recordPage {
	p := &recordPage{Epoch: rng.Uint64(), Buckets: rng.Intn(1 << 31), Degraded: rng.Intn(2) == 1}
	for i := rng.Intn(4); i > 0; i-- {
		p.Cell = append(p.Cell, rng.Intn(1<<31))
	}
	if rng.Intn(2) == 0 {
		p.Buckets = rng.Intn(6)
		if n > 0 {
			p.Buckets++
		}
		p.Counts = make([]int, p.Buckets)
		for i := 0; i < n; i++ {
			p.Counts[rng.Intn(p.Buckets)]++
		}
	}
	for i := 0; i < n; i++ {
		rec := datagen.Record{ID: int(rng.Uint64()), Values: make([]float64, k)}
		if rng.Intn(4) == 0 {
			rec.ID = edgeIDs[rng.Intn(len(edgeIDs))]
		}
		for j := range rec.Values {
			bits := rng.Uint64()
			if rng.Intn(3) == 0 {
				bits = edgeValues[rng.Intn(len(edgeValues))]
			}
			rec.Values[j] = math.Float64frombits(bits)
		}
		p.Records = append(p.Records, rec)
	}
	return p
}

// TestFrameRoundTrip is the codec's property test: whatever page goes in
// comes out — header fields, bucket counts, IDs and value bit patterns —
// and the decoded page frames back to the same bytes.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sizes := []int{0, 1, 2, 31, 5000}
	for round := 0; round < 40; round++ {
		sizes = append(sizes, rng.Intn(5001))
	}
	for _, n := range sizes {
		for _, k := range []int{1, 2, 3, 8} {
			want := randomPage(rng, n, k)
			data := framePage(t, want)
			var got recordPage
			if err := got.decode(frameContentType, data); err != nil {
				t.Fatalf("n=%d k=%d: decode: %v", n, k, err)
			}
			if got.Epoch != want.Epoch || got.Buckets != want.Buckets || got.Degraded != want.Degraded ||
				fmt.Sprint(got.Cell) != fmt.Sprint(want.Cell) ||
				(got.Counts == nil) != (want.Counts == nil) || !slices.Equal(got.Counts, want.Counts) {
				t.Fatalf("n=%d k=%d: header (%d %d %v %v %v), want (%d %d %v %v %v)", n, k,
					got.Epoch, got.Buckets, got.Degraded, got.Cell, got.Counts, want.Epoch, want.Buckets, want.Degraded, want.Cell, want.Counts)
			}
			recs := got.Records
			if len(recs) != n {
				t.Fatalf("n=%d k=%d: %d records back", n, k, len(recs))
			}
			for i, rec := range recs {
				if rec.ID != want.Records[i].ID || len(rec.Values) != k {
					t.Fatalf("n=%d k=%d: record %d = %+v, want %+v", n, k, i, rec, want.Records[i])
				}
				for j, v := range rec.Values {
					if math.Float64bits(v) != math.Float64bits(want.Records[i].Values[j]) {
						t.Fatalf("n=%d k=%d: record %d value %d = %#x, want %#x", n, k, i, j,
							math.Float64bits(v), math.Float64bits(want.Records[i].Values[j]))
					}
				}
			}
			if again := framePage(t, &got); !bytes.Equal(again, data) {
				t.Fatalf("n=%d k=%d: decoded page frames to different bytes", n, k)
			}
		}
	}
}

// FuzzFrameDecode feeds decode arbitrary bytes. It must never panic,
// must not allocate more than a small multiple of its input (a header
// claiming 2³² records of 2¹⁶ values is refused, not provisioned for),
// and whatever it accepts must frame back to the very same bytes — so
// no two byte strings mean the same page. The in-place view the router
// gathers from refuses exactly what decode refuses, and on every
// accepted frame reads the same counts, IDs and value bits.
//
// The committed corpus (testdata/fuzz/FuzzFrameDecode) pins one verdict
// per shape. "unknown-flag" predates counted frames: it sets bit 1 on a
// frame without a counts section, and stays refused because bit 1 now
// says its 36 buckets' counts — 144 bytes — sit between the header and
// the 72 bytes of records; "flag-bit-2" sets the lowest flag still
// unassigned. "valid-counted", "counts-sum-short" and "counts-cut" are a
// counted frame, the same with one count lowered, and the same with the
// last count's bytes removed.
func FuzzFrameDecode(f *testing.F) {
	f.Add(framePage(f, randomPage(rand.New(rand.NewSource(1)), 3, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var p recordPage
		err := p.decode(frameContentType, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		view, verr := parseFrame(frameContentType, data)
		if (err == nil) != (verr == nil) {
			t.Fatalf("decode says %v, parseFrame %v", err, verr)
		}
		if err != nil {
			return
		}
		if again := framePage(t, &p); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", data, again)
		}
		if view.n != len(p.Records) || view.epoch != p.Epoch || view.buckets != p.Buckets || view.degraded != p.Degraded ||
			len(view.cell) != 4*len(p.Cell) || view.counted != (p.Counts != nil) || len(view.counts) != 4*len(p.Counts) {
			t.Fatalf("view header %+v, decoded page %+v", view, p)
		}
		for i, want := range p.Counts {
			if got := view.take(1); got != want {
				t.Fatalf("bucket %d: view counts %d; decode %d", i, got, want)
			}
		}
		for i, want := range p.Records {
			if got := view.next(make([]float64, view.k)); !sameRecord(got, want) {
				t.Fatalf("record %d: view reads %+v; decode %+v", i, got, want)
			}
		}
	})
}

// TestFrameDecodeRefusals names the malformed frames decode must turn
// away (the fuzz corpus carries the same shapes).
func TestFrameDecodeRefusals(t *testing.T) {
	valid := framePage(t, &recordPage{
		Epoch: 3, Buckets: 9, Cell: []int{4, 5},
		Records: []datagen.Record{{ID: 7, Values: []float64{1, 2}}, {ID: 8, Values: []float64{3, 4}}},
	})
	counted := framePage(t, &recordPage{
		Epoch: 3, Buckets: 3, Counts: []int{1, 0, 1},
		Records: []datagen.Record{{ID: 7, Values: []float64{1, 2}}, {ID: 8, Values: []float64{3, 4}}},
	})
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(valid)) }
	mutateCounted := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(counted)) }
	cases := map[string][]byte{
		"empty":         nil,
		"short header":  valid[:frameHeaderLen-1],
		"bad magic":     mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"wrong version": mutate(func(b []byte) []byte { b[3] = 2; return b }),
		"unknown flag":  mutate(func(b []byte) []byte { b[4] = 4; return b }),
		// Bit 1 promises a count per bucket between cell and records.
		"counted, no counts": mutate(func(b []byte) []byte { b[4] = 2; return b }),
		"counts sum short":   mutateCounted(func(b []byte) []byte { le.PutUint32(b[frameHeaderLen:], 0); return b }),
		"counts cut": mutateCounted(func(b []byte) []byte {
			return append(b[:frameHeaderLen+8], b[frameHeaderLen+12:]...)
		}),
		"counts overstated": mutateCounted(func(b []byte) []byte { le.PutUint32(b[16:], 4); return b }),
		"trailing byte":     append(bytes.Clone(valid), 0),
		"cut short":         valid[:len(valid)-1],
		"n overstated":      mutate(func(b []byte) []byte { le.PutUint32(b[20:], 3); return b }),
		"k overstated":      mutate(func(b []byte) []byte { le.PutUint16(b[6:], 3); return b }),
		"n·k overflows": mutate(func(b []byte) []byte {
			le.PutUint32(b[20:], math.MaxUint32)
			le.PutUint16(b[6:], math.MaxUint16)
			return b
		}),
		"cell overshoot": mutate(func(b []byte) []byte { b[5] = 255; return b }),
		"k without n":    mutate(func(b []byte) []byte { le.PutUint32(b[20:], 0); return b[:frameHeaderLen+8] }),
	}
	for name, data := range cases {
		var p recordPage
		if err := p.decode(frameContentType, data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var p recordPage
	if err := p.decode("application/json", valid); err == nil {
		t.Error("a frame under the JSON content type was accepted")
	}
	for _, ok := range [][]byte{valid, counted} {
		if err := p.decode(frameContentType, ok); err != nil {
			t.Fatalf("a valid frame: %v", err)
		}
	}
}

// TestFrameRecordsDoNotAlias: the records of a decoded page share one
// value slab, but each record's Values is capped at its own values, so
// appending to one reallocates instead of overwriting its neighbour.
func TestFrameRecordsDoNotAlias(t *testing.T) {
	var p recordPage
	if err := p.decode(frameContentType, framePage(t, randomPage(rand.New(rand.NewSource(2)), 64, 3))); err != nil {
		t.Fatal(err)
	}
	recs := p.Records
	for i := 0; i+1 < len(recs); i++ {
		next := math.Float64bits(recs[i+1].Values[0])
		_ = append(recs[i].Values, 12345)
		if math.Float64bits(recs[i+1].Values[0]) != next {
			t.Fatalf("append to record %d wrote into record %d", i, i+1)
		}
	}
}

// encodeRequest encodes q or fails the test.
func encodeRequest(t testing.TB, q *readRequest) []byte {
	t.Helper()
	data, err := q.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRequestRoundTrip: a read request of 1 to 4 axes and of every kind
// — an aggregate of 1 to maxRequestRects disjoint rects — at priorities
// down to MinInt32 and coordinates up to MaxInt32, decodes on its
// endpoint to what was encoded and encodes back to the same bytes. A
// request the layout cannot carry is refused by the encoder as the bad
// request the node would refuse it as.
func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for k := 1; k <= 4; k++ {
		for kind := byte(0); kind <= byte(aggregate.OpMax)+1; kind++ {
			for _, prio := range []int{0, -500, -1000, math.MinInt32, math.MaxInt32} {
				n := 1
				if kind > 0 {
					n = 1 + rng.Intn(maxRequestRects)
				}
				want := readRequest{Kind: kind, Attr: rng.Intn(1 << 16), Epoch: rng.Uint64(), Priority: prio, Rects: make([]grid.Rect, n)}
				for j := range want.Rects {
					r := grid.Rect{Lo: make(grid.Coord, k), Hi: make(grid.Coord, k)}
					for i := range r.Lo {
						r.Lo[i], r.Hi[i] = rng.Intn(1<<31), rng.Intn(1<<31)
					}
					// Disjoint on axis 0: rect j within [j·2²⁷, (j+1)·2²⁷).
					r.Lo[0] = j<<27 + rng.Intn(1<<26)
					r.Hi[0] = r.Lo[0] + rng.Intn(1<<26)
					want.Rects[j] = r
				}
				want.Rects[n-1].Hi[k-1] = math.MaxInt32
				data := encodeRequest(t, &want)
				got, err := decodeRequest(requestContentType, bytes.NewReader(data), kind > 0)
				if err != nil {
					t.Fatalf("k=%d kind=%d priority=%d: %v", k, kind, prio, err)
				}
				if got.Kind != want.Kind || got.Attr != want.Attr || got.Epoch != want.Epoch || got.Priority != want.Priority ||
					!slices.EqualFunc(got.Rects, want.Rects, func(a, b grid.Rect) bool { return slices.Equal(a.Lo, b.Lo) && slices.Equal(a.Hi, b.Hi) }) {
					t.Fatalf("k=%d kind=%d: decoded %+v, want %+v", k, kind, got, want)
				}
				if again := encodeRequest(t, &got); !bytes.Equal(again, data) {
					t.Fatalf("k=%d kind=%d: decoded request encodes to different bytes", k, kind)
				}
			}
		}
	}
	one := grid.Rect{Lo: grid.Coord{1, 2}, Hi: grid.Coord{3, 4}}
	overCap := make([]grid.Rect, maxRequestRects+1)
	for i := range overCap {
		overCap[i] = grid.Rect{Lo: grid.Coord{i, 0}, Hi: grid.Coord{i, 0}}
	}
	for name, q := range map[string]readRequest{
		"no axes":               {},
		"ragged rect":           {Rects: []grid.Rect{{Lo: grid.Coord{1, 2}, Hi: grid.Coord{3}}}},
		"256 axes":              {Rects: []grid.Rect{{Lo: make(grid.Coord, 256), Hi: make(grid.Coord, 256)}}},
		"attr past uint16":      {Attr: 1 << 16, Rects: []grid.Rect{one}},
		"negative attr":         {Attr: -1, Rects: []grid.Rect{one}},
		"priority past int32":   {Priority: math.MaxInt32 + 1, Rects: []grid.Rect{one}},
		"negative coordinate":   {Rects: []grid.Rect{{Lo: grid.Coord{-1, 2}, Hi: grid.Coord{3, 4}}}},
		"coordinate past int32": {Rects: []grid.Rect{{Lo: grid.Coord{1, 2}, Hi: grid.Coord{3, math.MaxInt32 + 1}}}},
		"rects of unequal axes": {Kind: 1, Rects: []grid.Rect{one, {Lo: grid.Coord{5}, Hi: grid.Coord{6}}}},
		"rects over the cap":    {Kind: 1, Rects: overCap},
	} {
		if _, err := q.appendTo(nil); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: encoder says %v, want a bad request", name, err)
		}
	}
}

// TestRequestDecodeRefusals names the malformed read requests a node must
// answer with bad_request (the fuzz corpus carries the same shapes).
func TestRequestDecodeRefusals(t *testing.T) {
	valid := encodeRequest(t, &readRequest{Epoch: 1, Rects: []grid.Rect{{Lo: grid.Coord{2, 3}, Hi: grid.Coord{4, 5}}}})
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(valid)
		f(b)
		return b
	}
	sum := func(rects ...grid.Rect) []byte {
		return encodeRequest(t, &readRequest{Kind: byte(aggregate.OpSum) + 1, Epoch: 1, Rects: rects})
	}
	cells := make([]grid.Rect, maxRequestRects+1)
	for i := range cells {
		cells[i] = grid.Rect{Lo: grid.Coord{i, 0}, Hi: grid.Coord{i, 0}}
	}
	three, atCap := sum(cells[:3]...), sum(cells[:maxRequestRects]...)
	recount := func(b []byte, n uint32) []byte {
		b = bytes.Clone(b)
		le.PutUint32(b[24:], n)
		return b
	}
	overCap := recount(atCap, maxRequestRects+1) // and one cell more than the encoder would carry
	for _, c := range append(cells[maxRequestRects].Lo, cells[maxRequestRects].Hi...) {
		overCap = le.AppendUint32(overCap, uint32(c))
	}
	cases := []struct {
		name, contentType string
		body              []byte
		aggregate         bool
	}{
		{"wrong content type", "application/json", valid, false},
		{"empty", requestContentType, nil, false},
		{"short header", requestContentType, valid[:requestHeaderLen-1], false},
		{"cut short", requestContentType, valid[:len(valid)-1], false},
		{"trailing byte", requestContentType, append(bytes.Clone(valid), 0), false},
		{"too large", requestContentType, append(bytes.Clone(valid), make([]byte, smallPayloadLimit)...), false},
		{"bad magic", requestContentType, mutate(func(b []byte) { b[0] = 'X' }), false},
		{"version 1", requestContentType, mutate(func(b []byte) { b[3] = 1 }), false},
		{"version 3", requestContentType, mutate(func(b []byte) { b[3] = 3 }), false},
		{"unknown kind", requestContentType, mutate(func(b []byte) { b[4] = byte(aggregate.OpMax) + 2 }), true},
		{"aggregate kind on /v1/query", requestContentType, mutate(func(b []byte) { b[4] = 1 }), false},
		{"records kind on /v1/aggregate", requestContentType, valid, true},
		{"no axes", requestContentType, mutate(func(b []byte) { b[5] = 0 })[:requestHeaderLen], false},
		{"axes overstated", requestContentType, mutate(func(b []byte) { b[5] = 3 }), false},
		{"bucket list", requestContentType, mutate(func(b []byte) { le.PutUint32(b[20:], 1) }), false},
		{"coordinate past MaxInt32", requestContentType, mutate(func(b []byte) { le.PutUint32(b[requestHeaderLen+4:], math.MaxInt32+1) }), false},
		{"no rects", requestContentType, recount(valid, 0)[:requestHeaderLen], false},
		{"no rects on /v1/aggregate", requestContentType, recount(three, 0)[:requestHeaderLen], true},
		{"rect count overstated", requestContentType, recount(three, 4), true},
		{"rect count understated", requestContentType, recount(three, 2), true},
		{"rects over the cap", requestContentType, overCap, true},
		{"overlapping rects", requestContentType, sum(tcRect(0, 0, 3, 3), tcRect(3, 3, 5, 5)), true},
		{"a rect twice", requestContentType, sum(cells[1], cells[2], cells[1]), true},
		{"two rects on /v1/query", requestContentType, encodeRequest(t, &readRequest{Epoch: 1, Rects: cells[:2]}), false},
	}
	for _, c := range cases {
		_, err := decodeRequest(c.contentType, bytes.NewReader(c.body), c.aggregate)
		if ErrorCode(err) != CodeBadRequest {
			t.Errorf("%s: %v, want %s", c.name, err, CodeBadRequest)
		}
		if c.name == "too large" && (err == nil || !strings.Contains(err.Error(), "request body too large")) {
			t.Errorf("too large: %v", err)
		}
	}
	if _, err := decodeRequest(requestContentType, bytes.NewReader(valid), false); err != nil {
		t.Fatalf("a valid request: %v", err)
	}
	for _, ok := range [][]byte{three, atCap} {
		if req, err := decodeRequest(requestContentType, bytes.NewReader(ok), true); err != nil || len(req.Rects) != int(le.Uint32(ok[24:])) {
			t.Fatalf("an aggregate of %d disjoint rects: %v", le.Uint32(ok[24:]), err)
		}
	}
}

// tcRect is the two-axis rect lo..hi.
func tcRect(x0, y0, x1, y1 int) grid.Rect {
	return grid.Rect{Lo: grid.Coord{x0, y0}, Hi: grid.Coord{x1, y1}}
}

// TestRequestCorpusVerdicts pins the committed FuzzRequestDecode corpus's
// verdicts: an entry named valid-… is accepted by exactly one read
// endpoint, every other entry by neither.
func TestRequestCorpusVerdicts(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRequestDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus entry (%v)", e.Name(), err)
		}
		accepted := 0
		for _, aggregate := range []bool{false, true} {
			_, err := decodeRequest(requestContentType, strings.NewReader(data), aggregate)
			if err == nil {
				accepted++
			} else if e.Name() == "wrong-version" && !strings.Contains(err.Error(), "version 1;") {
				t.Errorf("%s: refused as %v, want the version named", e.Name(), err)
			}
		}
		want := 0
		if strings.HasPrefix(e.Name(), "valid-") {
			want = 1
		}
		if accepted != want {
			t.Errorf("%s: accepted by %d read endpoints, want %d", e.Name(), accepted, want)
		}
	}
}

// FuzzRequestDecode feeds decodeRequest arbitrary bytes on both read
// endpoints. It must never panic and must refuse only as a bad request;
// whatever it accepts must encode back to the very same bytes, so no two
// byte strings mean the same request; and no input is accepted by both
// endpoints — its kind names one.
//
// The committed corpus (testdata/fuzz/FuzzRequestDecode) pins one verdict
// per shape, as TestRequestCorpusVerdicts checks: five valid requests (a
// router leg, a copier's one-bucket read at −1000, a one-axis MAX
// aggregate, a four-axis COUNT, a three-rect SUM) and refusals — the
// table of TestRequestDecodeRefusals but for its content-type and size
// rows, and the multi-rect shapes: no rects, a count past the cap, an
// overstated count, overlapping rects, two rects on /v1/query. Its
// wrong-version entry is a version-1 router leg, the one-rect layout
// before the rect count: an older peer's request is refused by its
// version, not its length.
func FuzzRequestDecode(f *testing.F) {
	f.Add(encodeRequest(f, &readRequest{Epoch: 1, Priority: -500, Rects: []grid.Rect{{Lo: grid.Coord{3, 3}, Hi: grid.Coord{3, 3}}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		accepted := 0
		for _, aggregate := range []bool{false, true} {
			req, err := decodeRequest(requestContentType, bytes.NewReader(data), aggregate)
			if err != nil {
				if !errors.Is(err, ErrBadRequest) {
					t.Fatalf("aggregate=%v: refused as %v, not as a bad request", aggregate, err)
				}
				continue
			}
			accepted++
			if again, err := req.appendTo(nil); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted request re-encodes differently (%v):\n in %x\nout %x", err, data, again)
			}
		}
		if accepted > 1 {
			t.Fatalf("both read endpoints accepted %x", data)
		}
	})
}

// TestRaggedPageDrawsErrorEnvelope: a record set that is not k values
// wide throughout is refused by the encoder, and the handler's writer
// answers with the JSON error envelope — never a half-written 200.
func TestRaggedPageDrawsErrorEnvelope(t *testing.T) {
	ragged := &recordPage{Records: []datagen.Record{{ID: 1, Values: []float64{1, 2}}, {ID: 2, Values: []float64{3}}}}
	if _, err := ragged.appendTo(nil); err == nil {
		t.Fatal("ragged page encoded")
	}
	rec := httptest.NewRecorder()
	writePage(rec, ragged)
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("ragged page answered %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	err := decodeErrorBody(rec.Code, rec.Body.Bytes())
	if err == nil || !strings.Contains(err.Error(), CodeInternal) || !strings.Contains(err.Error(), "record 2 has 1 values") {
		t.Fatalf("ragged page envelope decoded to %v", err)
	}
}

// routeTo parses url as a route for contentType ("" for a GET route).
func routeTo(t *testing.T, url, contentType string) *route {
	t.Helper()
	to, err := newRoute(url, contentType)
	if err != nil {
		t.Fatal(err)
	}
	return &to
}

// TestExchangeKeepsRouteHeaderForCookieJar: a client with a cookie jar
// adds its cookies to each request's header. Concurrent exchanges on one
// route get the node's cookie back, each on its own copy: the route's
// shared header set stays as newRoute built it.
func TestExchangeKeepsRouteHeaderForCookieJar(t *testing.T) {
	var cookies atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := r.Cookie("session"); err == nil {
			cookies.Add(1)
		}
		http.SetCookie(w, &http.Cookie{Name: "session", Value: "1"})
		writeJSON(w, epochResponse{Epoch: 1})
	}))
	defer srv.Close()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := srv.Client()
	client.Jar = jar
	body, contentType, err := encodeBody(epochRequest{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	to := routeTo(t, srv.URL+"/v1/migrate/abort", contentType)
	want := to.header.Clone()
	if err := exchange(context.Background(), client, 0, to, body, nil, smallPayloadLimit); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := exchange(context.Background(), client, 0, to, body, nil, smallPayloadLimit); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(to.header, want) || cookies.Load() != 8 {
		t.Fatalf("route header %v after the jar's exchanges (built %v); %d of 8 carried the cookie", to.header, want, cookies.Load())
	}
}

// TestExchangeRefusesOverCapResponse: an answer longer than the call
// site's cap is refused by name — with a Content-Length before a byte is
// read, without one as soon as the extra byte arrives — instead of being
// cut at the cap and misreported as a corrupt body. For node health the
// refusal counts exactly as a bad body does.
func TestExchangeRefusesOverCapResponse(t *testing.T) {
	const limit = 4096
	body := bytes.Repeat([]byte{' '}, limit+1)
	for _, withLength := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if withLength {
				w.Header().Set("Content-Length", fmt.Sprint(len(body)))
				_, _ = w.Write(body)
				return
			}
			_, _ = w.Write(body[:limit/2])
			w.(http.Flusher).Flush() // chunked from here on: no Content-Length
			_, _ = w.Write(body[limit/2:])
		}))
		var out epochResponse
		err := exchange(context.Background(), srv.Client(), 0, routeTo(t, srv.URL+"/v1/health", ""), nil, &out, limit)
		srv.Close()
		want := fmt.Sprintf("cluster: %s/v1/health: response exceeds %d bytes", srv.URL, limit)
		if err == nil || err.Error() != want {
			t.Errorf("Content-Length %v: exchange = %v, want %q", withLength, err, want)
		}
		if !breakerCountable(err) {
			t.Errorf("Content-Length %v: the refusal is not breaker-countable, unlike a bad body", withLength)
		}
	}
}

// TestExchangeHoldsErrorBodiesSmall: a non-200 answer is an error
// envelope, so it is held to smallPayloadLimit whatever the op's cap —
// the router does not provision 64 MB for a JSON error — and an envelope
// of ordinary size still decodes to its typed sentinel.
func TestExchangeHoldsErrorBodiesSmall(t *testing.T) {
	huge := bytes.Repeat([]byte{' '}, 2<<20)
	for _, withLength := range []bool{true, false} {
		for _, oversized := range []bool{true, false} {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !oversized {
					writeError(w, fmt.Errorf("%w: disk 3", fault.ErrUnavailable))
					return
				}
				if withLength {
					w.Header().Set("Content-Length", fmt.Sprint(len(huge)))
				}
				w.WriteHeader(http.StatusInternalServerError)
				_, _ = w.Write(huge)
			}))
			var leg pageLeg
			body := encodeRequest(t, &readRequest{Epoch: 1, Rects: []grid.Rect{{Lo: grid.Coord{0}, Hi: grid.Coord{0}}}})
			err := exchange(context.Background(), srv.Client(), 0, routeTo(t, srv.URL+"/v1/query", requestContentType), body, &leg, recordPayloadLimit)
			srv.Close()
			switch {
			case leg.body != nil:
				t.Errorf("Content-Length %v: a failed leg kept a pooled body", withLength)
			case oversized && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("response exceeds %d bytes", smallPayloadLimit))):
				t.Errorf("Content-Length %v: a 2 MB error body drew %v, want the exceeds refusal at the small cap", withLength, err)
			case !oversized && !errors.Is(err, fault.ErrUnavailable):
				t.Errorf("Content-Length %v: an ordinary envelope decoded to %v, want ErrUnavailable", withLength, err)
			}
		}
	}
}

// TestNodeRefusesOversizedRequestBody: a POST body past its route's cap
// draws the typed bad-request envelope — the handler neither hangs nor
// reads it all — also when the slow-node fault pre-reads the body.
func TestNodeRefusesOversizedRequestBody(t *testing.T) {
	tc := startTestCluster(t, 4, 2, RouterConfig{})
	pad := strings.Repeat(" ", smallPayloadLimit)
	for _, slow := range []bool{false, true} {
		if slow {
			if err := tc.h.Faults().SetNodeSlow(0, 2); err != nil {
				t.Fatal(err)
			}
		}
		for _, path := range []string{"/v1/query", "/v1/aggregate", "/v1/migrate/prepare", "/v1/migrate/cutover", "/v1/migrate/abort"} {
			// Valid JSON for every control endpoint's decoder, a megabyte
			// of leading blanks too long; to the read endpoints, a
			// megabyte and a byte under the request content type.
			contentType, body := "application/json", pad+`{"epoch":1}`
			if path == "/v1/query" || path == "/v1/aggregate" {
				contentType, body = requestContentType, pad+" "
			}
			resp, err := http.Post(tc.h.URL(0)+path, contentType, strings.NewReader(body))
			if err != nil {
				t.Fatalf("slow=%v %s: %v", slow, path, err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			err = decodeErrorBody(resp.StatusCode, data)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(err.Error(), CodeBadRequest) ||
				!strings.Contains(err.Error(), "request body too large") {
				t.Errorf("slow=%v %s: oversized body answered %d: %v", slow, path, resp.StatusCode, err)
			}
		}
	}
	// A frame that is not one is a bad request too, not an internal error.
	resp, err := http.Post(tc.h.URL(0)+"/v1/migrate/bucket", frameContentType, strings.NewReader("not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage migrate/bucket body answered %d", resp.StatusCode)
	}
}

// --- allocation gate ---------------------------------------------------

// inprocTransport serves each request by calling the addressed node's
// handler on the caller's goroutine: the whole wire path but the socket.
// Like a socket it keeps no answer: the response body sits in a pooled
// buffer, given back when the client closes it — so what the gates below
// count is the node handlers and the router, not the transport's copy.
type inprocTransport map[string]http.Handler

var inprocBodies = sync.Pool{New: func() any { return new(inprocBody) }}

type inprocBody struct {
	bytes.Buffer
	header http.Header
	status int
}

func (b *inprocBody) Header() http.Header  { return b.header }
func (b *inprocBody) WriteHeader(code int) { b.status = code }
func (b *inprocBody) Close() error         { inprocBodies.Put(b); return nil }

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	b := inprocBodies.Get().(*inprocBody)
	b.Reset()
	b.header, b.status = http.Header{}, http.StatusOK
	t[req.URL.Host].ServeHTTP(b, req)
	return &http.Response{StatusCode: b.status, Header: b.header, Body: b, ContentLength: int64(b.Len()), Request: req}, nil
}

// allocFixture is the benchmark's canonical cluster in-process: 64×64
// grid, HCAM over 16 disks, 50k records, four nodes with two replicas,
// and the benchmark's two rectangles — both span all four shards, so a
// search of either is four legs.
func allocFixture(t testing.TB) (nodes inprocTransport, rt *Router, large, small grid.Rect) {
	t.Helper()
	g := grid.MustNew(64, 64)
	m, err := alloc.NewHCAM(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewChainShardMap(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := datagen.Uniform{K: 2, Seed: 18}.Generate(50000)
	nodes = inprocTransport{}
	var urls []string
	for i := 0; i < sm.Nodes(); i++ {
		n, err := NewNode(NodeConfig{ID: sm.MemberAt(i), Map: sm, Method: m, Records: recs, Faults: fault.NewNodeInjector()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		host := fmt.Sprintf("node%d.inproc", i)
		nodes[host] = n.Handler()
		urls = append(urls, "http://"+host)
	}
	rt, err = NewRouter(RouterConfig{Map: sm, Endpoints: urls, Client: &http.Client{Transport: nodes}, NodeDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return nodes, rt, g.MustRect(grid.Coord{8, 8}, grid.Coord{55, 55}), g.MustRect(grid.Coord{29, 29}, grid.Coord{34, 34})
}

// nullResponse is a ResponseWriter that keeps nothing.
type nullResponse struct {
	header http.Header
	status int
	n      int
}

func (w *nullResponse) Header() http.Header  { return w.header }
func (w *nullResponse) WriteHeader(code int) { w.status = code }
func (w *nullResponse) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// The cluster data path's allocation budgets. What they pin is that the
// object count does not grow with the record count: a 48×48 answer
// (~28k records) may cost at most perRecordSlack objects more than a
// 6×6 one (~440 records) over the same four legs — as JSON the
// difference was ≈ 57k. The absolute figures are the 6×6 measurements
// plus 10 %: 35 and 248 when they were set, 36 and 252 since each node
// query's bucket reader carries a per-disk stamp chain (one object per
// node query, four legs per search). Counted frames and the run-walk
// gather left them there: 36 for either node query, 252 for the 6×6
// search and 254 for the 48×48. The binary read request and a last leg
// run on the caller's goroutine took them to 23 for either node query,
// 187 for the 6×6 search and 189 for the 48×48; a four-leg aggregate
// measured 157 for either rect. Legs built on routes parsed once, and
// aggregates sent as one leg per covering holder (two, for either rect),
// measure 24 for either node query (the request's rect list is one more
// object), 169 for the 6×6 search and 170 or 171 for the 48×48, and 106 for
// either aggregate.
const (
	perRecordSlack        = 64
	nodeQueryBudget       = 25
	routerSearchBudget    = 205
	routerAggregateBudget = 172
)

// TestNodeQueryZeroAllocsPerRecord gates one node's handleQuery.
func TestNodeQueryZeroAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	nodes, rt, large, small := allocFixture(t)
	handler := nodes["node0.inproc"]
	sm := rt.Map()
	query := func(q grid.Rect) func() {
		subs, err := sm.Decompose(q)
		if err != nil {
			t.Fatal(err)
		}
		var sub grid.Rect
		for _, sq := range subs {
			if sm.ShardMembers(sq.Shard)[0] == 0 {
				sub = sq.Rect
			}
		}
		body, err := (&readRequest{Epoch: 1, Rects: []grid.Rect{sub}}).appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		w := &nullResponse{header: http.Header{}}
		return func() {
			*w = nullResponse{header: w.header}
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
			req.Header.Set("Content-Type", requestContentType)
			handler.ServeHTTP(w, req)
			if w.status != 0 || w.n <= frameHeaderLen {
				t.Fatalf("query answered status %d with %d bytes", w.status, w.n)
			}
		}
	}
	checkAllocBudget(t, "handleQuery", query(large), query(small), nodeQueryBudget)
}

// TestRouterSearchZeroAllocsPerRecord gates a four-node Router.Search.
func TestRouterSearchZeroAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	_, rt, large, small := allocFixture(t)
	search := func(q grid.Rect) func() {
		return func() {
			res, err := rt.Search(context.Background(), q)
			if err != nil || res.SubQueries != 4 || len(res.Records) == 0 {
				t.Fatalf("search %v: %v, %+v", q, err, res)
			}
		}
	}
	checkAllocBudget(t, "Router.Search", search(large), search(small), routerSearchBudget)
}

// TestRouterAggregateZeroAllocsPerBucket gates a four-node
// Router.Aggregate: its legs carry no records, so the 48×48 rect costs
// what the 6×6 one does.
func TestRouterAggregateZeroAllocsPerBucket(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	_, rt, large, small := allocFixture(t)
	aggregate := func(q grid.Rect) func() {
		return func() {
			res, err := rt.Aggregate(context.Background(), aggregate.AggregateQuery{Rect: q, Op: aggregate.OpSum, Attr: 1})
			if err != nil || res.SubQueries != 4 || res.Count == 0 {
				t.Fatalf("aggregate %v: %v, %+v", q, err, res)
			}
		}
	}
	checkAllocBudget(t, "Router.Aggregate", aggregate(large), aggregate(small), routerAggregateBudget)
}

// TestRouterSearchZeroAllocsBytesPerRecord is the byte gate beside the
// object gate: a 48×48 search may allocate the answer the caller keeps —
// 32 bytes of Record and 8k of values a record — a quarter on top, and
// 64 KB of per-request overhead. A second materialisation of the records,
// or unpooled leg bodies, does not fit. Measured: 1,425,316 bytes for
// 28,194 records of 2 values against a budget of 1,757,176.
func TestRouterSearchZeroAllocsBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in goroutine bookkeeping; the alloc gate runs in the no-race CI step")
	}
	_, rt, large, _ := allocFixture(t)
	var records, k int
	search := func() {
		res, err := rt.Search(context.Background(), large)
		if err != nil || res.SubQueries != 4 || len(res.Records) == 0 {
			t.Fatalf("search %v: %v, %+v", large, err, res)
		}
		records, k = len(res.Records), len(res.Records[0].Values)
	}
	for i := 0; i < 8; i++ { // warm the pools
		search()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		search()
	}
	runtime.ReadMemStats(&after)
	got, budget := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(records*(32+8*k))*5/4+64<<10
	t.Logf("Router.Search: %d bytes for %d records of %d values (budget %d)", got, records, k, budget)
	if got > budget {
		t.Errorf("Router.Search allocates %d bytes for %d records of %d values; the budget is %d", got, records, k, budget)
	}
}

func checkAllocBudget(t *testing.T, what string, large, small func(), budget float64) {
	t.Helper()
	for i := 0; i < 8; i++ { // warm the pools
		large()
		small()
	}
	nLarge, nSmall := testing.AllocsPerRun(50, large), testing.AllocsPerRun(50, small)
	t.Logf("%s: %.0f allocs for the 6×6 rect, %.0f for the 48×48", what, nSmall, nLarge)
	if nLarge-nSmall > perRecordSlack {
		t.Errorf("%s allocates %.0f objects for the 48×48 rect against %.0f for the 6×6: the count grows with the records", what, nLarge, nSmall)
	}
	if nSmall > budget {
		t.Errorf("%s allocates %.0f objects for the 6×6 rect; the budget is %.0f", what, nSmall, budget)
	}
}

// TestShardsListsMemberIDs checks that /v1/shards names each shard's
// holders by stable member ID, not map-node index. After member 1
// leaves a 4-node chain, the two differ for every shard it held.
func TestShardsListsMemberIDs(t *testing.T) {
	g := grid.MustNew(8, 8)
	m, err := alloc.NewHCAM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewChainShardMap(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	leave, err := PlanLeave(sm, 1)
	if err != nil {
		t.Fatal(err)
	}
	to := leave.To
	n, err := NewNode(NodeConfig{ID: to.MemberAt(0), Map: to, Method: m})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shards", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp shardsResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != len(to.Shards()) {
		t.Fatalf("%d shards listed, map has %d", len(resp.Shards), len(to.Shards()))
	}
	for _, sh := range resp.Shards {
		if want := to.ShardMembers(sh.ID); !slices.Equal(sh.Nodes, want) {
			t.Errorf("shard %d listed on %v, held by members %v", sh.ID, sh.Nodes, want)
		}
	}
}
