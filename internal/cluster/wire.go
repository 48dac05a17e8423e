package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"decluster/internal/aggregate"
	"decluster/internal/datagen"
	"decluster/internal/grid"
)

// Wire shapes for the node HTTP API. The rule: records are frames, reads
// are fixed binary layouts, everything else and every error is JSON. The
// two record-carrying payloads — the 200 answer of /v1/query and the body
// of /v1/migrate/bucket — are one record frame, encoded from bucket
// pages: the executor's per-bucket views of the grid file for a query,
// the one page being moved for a migration. The request both read
// endpoints take and the aggregate answer are fixed layouts, so a leg
// pays for its reads, not its envelope. Errors travel as an errorBody whose Code round-trips
// through DecodeError into the typed sentinel the node matched (see
// errors.go). Each payload has exactly one encoding, picked by its Go
// type and verified by Content-Type on receipt. Layouts are little-endian.
//
// Read request (requestContentType), the body of /v1/query and /v1/aggregate:
//
//	offset  size    field
//	0       4       magic "DGQ" + version 2 (version 1 had no rect count and one rect)
//	4       1       kind: 0 records, on /v1/query; 1–4 COUNT/SUM/MIN/MAX, on /v1/aggregate
//	5       1       k, rect axes (at least 1)
//	6       2       attr, the attribute an aggregate reduces
//	8       8       epoch
//	16      4       priority, int32
//	20      4       bucket-list count: 0, the section is reserved
//	24      4       n, rects: 1 to maxRequestRects; exactly 1 on /v1/query
//	28      8·k·n   rects, each lo[k] then hi[k], uint32 each, at most MaxInt32
//
// The length is exactly 28 + 8·k·n: n is read, never derived from the
// length. The rects must be pairwise disjoint — a bucket in two of them
// would be counted twice. An aggregate's answer folds every rect into
// one partial; a /v1/query leg still carries one rect.
//
// Aggregate answer (aggregateContentType), 48 bytes: uint32 op (as the
// request's kind), uint32 buckets, int64 count, float64 bits of sum, min
// and max (min and max mean something only when count > 0), uint64 epoch.
//
// Record frame (frameContentType):
//
//	offset  size       field
//	0       4          magic "DGP" + version 1
//	4       1          flags (bit 0: degraded; bit 1: counted; the rest must be 0)
//	5       1          c, cell axes (0 except on /v1/migrate/bucket)
//	6       2          k, values per record (0 when n is 0)
//	8       8          epoch
//	16      4          buckets
//	20      4          n, records
//	24      4·c        cell coordinates, uint32 each
//	24+4·c  4·buckets  counted only: records per bucket, uint32 each, row-major; they sum to n
//	…       n·(8+8k)   records: int64 id, then k float64 bit patterns
//
// A /v1/query answer is always counted: its records are its buckets'
// runs, row-major, and the counts say where each run ends — what lets the
// router stitch legs without mapping a value. A /v1/migrate/bucket frame
// is one bucket and never counted.
//
// Endpoints:
//
//	POST /v1/query            read request, kind 0, one rect      → record frame (router legs; rebuild/migration bucket reads)
//	POST /v1/aggregate        read request, kind 1–4, 1–16 rects  → aggregate answer over all its rects (disk-free kernel)
//	GET  /v1/health                                               → Health
//	GET  /v1/shards                                               → shardsResponse
//	POST /v1/migrate/prepare  prepareRequest                      → epochResponse
//	POST /v1/migrate/bucket   record frame                        → epochResponse
//	POST /v1/migrate/cutover  epochRequest                        → epochResponse
//	POST /v1/migrate/abort    epochRequest                        → epochResponse
//
// Epochs: every data request carries the sender's map epoch (maps are
// born at epoch 1). An epoch the node does not serve — zero included —
// draws CodeStaleEpoch with the node's current map attached, so the
// caller can adopt it and retry — the gossip path that lets routers
// follow migrations without a coordination service.
//
// Every client in the package (router legs, rebuilder, migrator, health
// probe) talks to a node through exchange, on a route it parsed once —
// the router at NewRouter, the others per call — and every handler answers
// through writePage / writeJSON / writeError. Every frame received passes
// parseFrame, whether it is then materialised (decode) or gathered from
// in place (the router's legs); every read request passes decodeRequest.

// Payload size caps, chosen per call site: record-carrying payloads
// (query, migration ingest) versus fixed-size ones. exchange
// holds responses to them, the node's handlers request bodies.
const (
	recordPayloadLimit = 64 << 20
	smallPayloadLimit  = 1 << 20

	frameContentType = "application/x-decluster-page"
	frameMagic       = "DGP\x01"
	frameHeaderLen   = 24

	requestContentType = "application/x-decluster-request"
	requestMagic       = "DGQ\x02"
	requestHeaderLen   = 28
	// maxRequestRects caps a read request's rect count: an aggregate leg
	// carries one rect per shard its holder answers, at most the map's
	// replica count, and the router splits a larger group.
	maxRequestRects = 16

	aggregateContentType = "application/x-decluster-aggregate"
)

var le = binary.LittleEndian

// binaryBody is a record frame, a read request or an aggregate answer:
// what exchange POSTs and writePage answers in its binary layout.
type binaryBody interface {
	appendTo(buf []byte) ([]byte, error)
	contentType() string
}

func (*recordPage) contentType() string        { return frameContentType }
func (*readRequest) contentType() string       { return requestContentType }
func (*aggregateResponse) contentType() string { return aggregateContentType }

// recordPage is a record-carrying payload: a sub-query's answer — one
// bucket's, for a rebuild or migration read — or one bucket sent to a
// migration's destination.
type recordPage struct {
	Epoch    uint64 // map epoch the page was read, or is to be ingested, under
	Buckets  int    // grid buckets the page covers
	Degraded bool   // some bucket came from a replica disk, not its primary
	Cell     []int  // the bucket a /v1/migrate/bucket page belongs to
	// Counts, when not nil, makes a counted frame: Buckets entries, how
	// many of the records each bucket holds, row-major, summing to their
	// number — or the receiver refuses the frame.
	Counts []int
	// Records are the payload as one run: what decode materialises, and
	// the one bucket a migration sends.
	Records []datagen.Record
	// Pages, when not nil, are the payload instead, as the runs a node's
	// query read left them (exec.Result.Pages), framed in order without
	// being copied into one Records first.
	Pages [][]datagen.Record
}

// appendTo frames p onto buf[:0], walking its pages — Pages, or Records
// as the one page. A record set that is not k values wide throughout is
// refused rather than emitted as a ragged page.
func (p *recordPage) appendTo(buf []byte) ([]byte, error) {
	pages := p.Pages
	if pages == nil {
		one := [1][]datagen.Record{p.Records}
		pages = one[:]
	}
	n, k := 0, -1
	for _, page := range pages {
		if n += len(page); k < 0 && len(page) > 0 {
			k = len(page[0].Values)
		}
	}
	k = max(k, 0)
	if uint64(p.Buckets) > math.MaxUint32 || len(p.Cell) > math.MaxUint8 || k > math.MaxUint16 || uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("cluster: page of %d records × %d values over %d buckets does not fit a record frame", n, k, p.Buckets)
	}
	flags := byte(0)
	if p.Degraded {
		flags |= 1
	}
	if p.Counts != nil {
		flags |= 2
	}
	buf = slices.Grow(buf[:0], frameHeaderLen+4*len(p.Cell)+4*len(p.Counts)+n*(8+8*k))
	buf = append(append(buf, frameMagic...), flags, byte(len(p.Cell)))
	buf = le.AppendUint16(buf, uint16(k))
	buf = le.AppendUint64(buf, p.Epoch)
	buf = le.AppendUint32(buf, uint32(p.Buckets))
	buf = le.AppendUint32(buf, uint32(n))
	for _, c := range p.Cell {
		buf = le.AppendUint32(buf, uint32(c))
	}
	for _, c := range p.Counts {
		buf = le.AppendUint32(buf, uint32(c))
	}
	for _, page := range pages {
		for _, r := range page {
			if len(r.Values) != k {
				return nil, fmt.Errorf("cluster: record %d has %d values in a page of %d-value records", r.ID, len(r.Values), k)
			}
			buf = le.AppendUint64(buf, uint64(r.ID))
			for _, v := range r.Values {
				buf = le.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return buf, nil
}

// frame is a validated record frame viewed in place: the header fields,
// and the cell, count and record regions still as the bytes they arrived
// as.
type frame struct {
	epoch             uint64
	buckets           int
	degraded, counted bool
	k, n              int    // values per record, records
	cell              []byte // 4 bytes an axis
	counts            []byte // 4 bytes a bucket when counted, else empty
	recs              []byte // n·(8+8k) bytes
}

// parseFrame is the one validation every received frame passes — content
// type, magic and version, flags, a length that is exactly header + cell
// + counts + n·(8+8k), computed in 64 bits, and counts that sum to n —
// and it allocates nothing: the view it returns reads data in place.
func parseFrame(contentType string, data []byte) (frame, error) {
	if contentType != frameContentType || len(data) < frameHeaderLen || string(data[:4]) != frameMagic {
		return frame{}, fmt.Errorf("not a record frame (%q, %d bytes)", contentType, len(data))
	}
	flags, c, k, n := data[4], int(data[5]), int(le.Uint16(data[6:])), int(le.Uint32(data[20:]))
	buckets, counted := int(le.Uint32(data[16:])), flags&2 != 0
	body := data[frameHeaderLen:]
	head := uint64(4 * c) // cell, then counts when counted
	if counted {
		head += 4 * uint64(buckets)
	}
	if flags > 3 || uint64(len(body)) < head || (n == 0 && k != 0) || uint64(len(body))-head != uint64(n)*uint64(8+8*k) {
		return frame{}, fmt.Errorf("malformed record frame: flags %#x, %d bytes after the header for %d cell axes, %d buckets and %d records of %d values", flags, len(body), c, buckets, n, k)
	}
	f := frame{
		epoch: le.Uint64(data[8:]), buckets: buckets, degraded: flags&1 != 0, counted: counted,
		k: k, n: n, cell: body[:4*c], counts: body[4*c : head], recs: body[head:],
	}
	// The sum cannot wrap: it is below 2³² per 4 bytes of a frame capped
	// at recordPayloadLimit.
	if rest := f; counted && rest.take(buckets) != n {
		return frame{}, fmt.Errorf("malformed record frame: %d bucket counts do not sum to its %d records", buckets, n)
	}
	return f, nil
}

// take drops the view's next buckets counts and returns their sum: how
// many of its next records those buckets hold.
func (f *frame) take(buckets int) int {
	n := 0
	for ; buckets > 0; buckets-- {
		n += int(le.Uint32(f.counts))
		f.counts = f.counts[4:]
	}
	return n
}

// next decodes the view's next record into vals and drops it from the
// view. vals must be f.k long and capped there, so a caller's append to
// the record's Values reallocates instead of writing into whatever lies
// behind them.
func (f *frame) next(vals []float64) datagen.Record {
	rec := f.recs
	for j := range vals {
		vals[j] = math.Float64frombits(le.Uint64(rec[8+8*j:]))
	}
	f.recs = rec[8+8*f.k:]
	return datagen.Record{ID: int(int64(le.Uint64(rec))), Values: vals}
}

// decode is parseFrame plus materialising the page in two allocations,
// the records and one value slab, for the callers that keep a whole page
// (rebuild, migration ingest).
func (p *recordPage) decode(contentType string, data []byte) error {
	f, err := parseFrame(contentType, data)
	if err != nil {
		return err
	}
	*p = recordPage{Epoch: f.epoch, Buckets: f.buckets, Degraded: f.degraded, Records: make([]datagen.Record, f.n)}
	for cell := f.cell; len(cell) > 0; cell = cell[4:] {
		p.Cell = append(p.Cell, int(le.Uint32(cell)))
	}
	if f.counted {
		p.Counts = make([]int, f.buckets)
		for i := range p.Counts {
			p.Counts[i] = f.take(1)
		}
	}
	slab := make([]float64, f.n*f.k)
	for i := range p.Records {
		p.Records[i] = f.next(slab[i*f.k : (i+1)*f.k : (i+1)*f.k])
	}
	return nil
}

// pageLeg is a search leg's answer as the router holds it until the
// merge: the frame view and the legBodies buffer it reads (nil when the
// body came without a Content-Length and was not pooled).
type pageLeg struct {
	frame
	body *[]byte
}

// legBodies recycles search-leg response bodies. A body is Put once, by
// release, by whoever holds the only reference to its leg; a leg nobody
// merges (a hedge loser) is left to the collector instead.
var legBodies = sync.Pool{New: func() any { return new([]byte) }}

// release returns the leg's body to the pool; the view is dead after it.
// A nil leg (a failed one; exchange's, when out is not one) has none.
func (l *pageLeg) release() {
	if l == nil {
		return
	}
	if l.body != nil {
		legBodies.Put(l.body)
	}
	*l = pageLeg{}
}

// route is a node endpoint as exchange sends to it: its URL, parsed
// once, and the header set of every request to it. The header set is
// shared by every request on the route and written by none; exchange
// gives a client with a cookie jar, which adds its cookies to the
// request's header, a copy.
type route struct {
	url    *neturl.URL
	header http.Header
}

// newRoute parses a node endpoint's URL. A route that takes POSTs names
// the content type of the bodies it is sent; a GET route passes "".
// Every POST in the protocol is idempotent by design — queries and
// aggregates are reads; prepare, bucket ingest, cutover and abort all
// tolerate replays. The Idempotency-Key header (its value is the
// endpoint's last path segment) marks the POST replayable so the
// transport transparently retries when a pooled keep-alive connection —
// closed by a node that restarted since — surfaces EOF on first reuse,
// instead of burning a whole attempt on a dead conn.
func newRoute(rawURL, contentType string) (route, error) {
	u, err := neturl.Parse(rawURL)
	if err != nil {
		return route{}, fmt.Errorf("cluster: endpoint %q: %w", rawURL, err)
	}
	header := http.Header{}
	if contentType != "" {
		header = http.Header{"Content-Type": {contentType}, "Idempotency-Key": {rawURL[strings.LastIndexByte(rawURL, '/')+1:]}}
	}
	return route{url: u, header: header}, nil
}

// encodeBody encodes a POST body: a binaryBody in its layout, anything
// else as JSON. It returns the content type to send it as.
func encodeBody(in any) ([]byte, string, error) {
	if b, ok := in.(binaryBody); ok {
		data, err := b.appendTo(nil)
		return data, b.contentType(), err
	}
	data, err := json.Marshal(in)
	return data, "application/json", err
}

// exchange performs one HTTP round trip against a node, through
// client.Do. A non-nil body is POSTed under the route's header set —
// its content type the one the route was built for — otherwise the
// request is a GET; a positive timeout bounds this call on top of ctx.
// The response is read whole, sized from its Content-Length, and refused
// when longer than limit bytes — smallPayloadLimit for a non-200 answer,
// whatever the call site's cap: an error envelope is small. A non-200
// answer decodes through decodeErrorBody into the typed error the node
// raised; a 200 decodes into out — a *recordPage, *pageLeg or
// *aggregateResponse from its layout, anything else from JSON, nil
// discards it.
func exchange(ctx context.Context, client *http.Client, timeout time.Duration, to *route, body []byte, out any, limit int64) (err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req := http.Request{Method: http.MethodGet, URL: to.url, Host: to.url.Host, Header: to.header}
	if body != nil {
		req.Method, req.ContentLength = http.MethodPost, int64(len(body))
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	if client.Jar != nil {
		req.Header = req.Header.Clone()
	}
	resp, err := client.Do(req.WithContext(ctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// A search leg's 200 is read into a pooled body the leg keeps; whatever
	// fails from here on gives it back.
	leg, _ := out.(*pageLeg)
	defer func() {
		if err != nil {
			leg.release()
		}
	}()
	if resp.StatusCode != http.StatusOK {
		limit, leg = min(limit, smallPayloadLimit), nil
	}
	// A body past the cap is refused, never cut at it: a truncated answer
	// would pass for a corrupt peer, or for a shorter page.
	var data []byte
	size := resp.ContentLength
	if size < 0 { // unknown: one byte past the cap tells
		data, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
		size = int64(len(data))
	} else if size <= limit {
		if leg != nil {
			leg.body = legBodies.Get().(*[]byte)
			*leg.body = slices.Grow((*leg.body)[:0], int(size))[:size]
			data = *leg.body
		} else {
			data = make([]byte, size)
		}
		_, err = io.ReadFull(resp.Body, data)
	}
	if err != nil {
		return err
	}
	if size > limit {
		return fmt.Errorf("cluster: %s: response exceeds %d bytes", to.url, limit)
	}
	if resp.StatusCode != http.StatusOK {
		return decodeErrorBody(resp.StatusCode, data)
	}
	switch out := out.(type) {
	case nil:
	case interface{ decode(string, []byte) error }: // *recordPage, *aggregateResponse
		err = out.decode(resp.Header.Get("Content-Type"), data)
	case *pageLeg:
		out.frame, err = parseFrame(resp.Header.Get("Content-Type"), data)
	default:
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		return fmt.Errorf("cluster: %s: bad response body: %w", to.url, err)
	}
	return nil
}

// wireRect is a grid.Rect in JSON clothing.
type wireRect struct {
	Lo []int `json:"lo"`
	Hi []int `json:"hi"`
}

func toWireRect(r grid.Rect) wireRect {
	return wireRect{Lo: []int(r.Lo.Clone()), Hi: []int(r.Hi.Clone())}
}

// readRequest is the node's one read request: a router leg or a copier's
// one-bucket read on /v1/query, an aggregate leg on /v1/aggregate. The
// node must hold every bucket of every rect under the map at Epoch.
type readRequest struct {
	Kind     byte   // 0 for the rect's records, 1 + the aggregate.AggregateOp for an aggregate
	Attr     int    // the attribute an aggregate reduces
	Epoch    uint64 // the shard-map epoch the sender routed against
	Priority int    // admission tier: 0 for a router leg, below 0 for a copier's read
	Rects    []grid.Rect
}

// appendTo encodes q onto buf[:0]. A request the layout cannot carry is
// refused as the bad request the node would refuse it as.
func (q *readRequest) appendTo(buf []byte) ([]byte, error) {
	k := 0
	if len(q.Rects) > 0 {
		k = len(q.Rects[0].Lo)
	}
	fits := k > 0 && k <= math.MaxUint8 && len(q.Rects) <= maxRequestRects && uint(q.Attr) <= math.MaxUint16 && int(int32(q.Priority)) == q.Priority
	buf = append(slices.Grow(buf[:0], requestHeaderLen+8*k*len(q.Rects)), requestMagic...)
	buf = le.AppendUint16(append(buf, q.Kind, byte(k)), uint16(q.Attr))
	buf = le.AppendUint32(le.AppendUint32(le.AppendUint64(buf, q.Epoch), uint32(int32(q.Priority))), 0)
	buf = le.AppendUint32(buf, uint32(len(q.Rects)))
	for _, r := range q.Rects {
		fits = fits && len(r.Lo) == k && len(r.Hi) == k
		for _, corner := range [2]grid.Coord{r.Lo, r.Hi} {
			for _, c := range corner {
				fits = fits && uint(c) <= math.MaxInt32
				buf = le.AppendUint32(buf, uint32(c))
			}
		}
	}
	if !fits {
		return nil, badRequestError{fmt.Errorf("cluster: read of %v (attr %d, priority %d) does not fit a read request", q.Rects, q.Attr, q.Priority)}
	}
	return buf, nil
}

// decodeRequest reads a read request POSTed to /v1/aggregate (agg
// set) or /v1/query. It checks the content type, the smallPayloadLimit
// cap, magic and version, a kind the endpoint serves, no bucket list, a
// rect count from 1 to maxRequestRects (exactly 1 on /v1/query), the
// exact length that count makes, coordinates ≤ MaxInt32 and pairwise
// disjoint rects, refusing as a bad request. It allocates only the rects
// and their coordinates.
func decodeRequest(contentType string, body io.Reader, agg bool) (readRequest, error) {
	bp := pageBufs.Get().(*[]byte)
	defer pageBufs.Put(bp)
	// The header sizes the read: the rects it announces (no more than the
	// cap allows) and one byte more, which must not come.
	*bp = slices.Grow((*bp)[:0], requestHeaderLen)
	data := (*bp)[:requestHeaderLen]
	n, err := io.ReadFull(body, data)
	if err == nil {
		size := requestHeaderLen + 8*int(data[5])*int(min(le.Uint32(data[24:]), maxRequestRects))
		*bp = slices.Grow(data, size+1-len(data))
		data = (*bp)[:size+1]
		var m int
		m, err = io.ReadFull(body, data[requestHeaderLen:])
		n += m
	}
	if err == nil { // longer than its header says; read on only to the cap
		rest, _ := io.Copy(io.Discard, io.LimitReader(body, smallPayloadLimit))
		if n, err = n+int(rest), nil; n > smallPayloadLimit {
			return readRequest{}, badRequestError{fmt.Errorf("request body too large: over %d bytes", smallPayloadLimit)}
		}
	} else if err != io.EOF && err != io.ErrUnexpectedEOF {
		return readRequest{}, badRequestError{fmt.Errorf("bad request body: %w", err)}
	}
	data = data[:min(n, len(data))]
	if contentType == requestContentType && n >= 4 && string(data[:3]) == requestMagic[:3] && data[3] != requestMagic[3] {
		return readRequest{}, badRequestError{fmt.Errorf("read request version %d; this node reads version %d", data[3], requestMagic[3])}
	}
	if contentType != requestContentType || n < requestHeaderLen || string(data[:4]) != requestMagic ||
		data[4] > byte(aggregate.OpMax)+1 || (data[4] > 0) != agg || data[5] == 0 || le.Uint32(data[20:]) != 0 {
		return readRequest{}, badRequestError{fmt.Errorf("not a read request for this endpoint (%q, %d bytes)", contentType, n)}
	}
	k, count := int(data[5]), le.Uint32(data[24:])
	if count == 0 || count > maxRequestRects || (count > 1 && !agg) {
		return readRequest{}, badRequestError{fmt.Errorf("read request of %d rects: an aggregate takes 1 to %d, a query 1", count, maxRequestRects)}
	}
	if n != requestHeaderLen+8*k*int(count) {
		return readRequest{}, badRequestError{fmt.Errorf("read request of %d rects of %d axes is %d bytes long", count, k, n)}
	}
	coords, rects := make([]int, 2*k*int(count)), make([]grid.Rect, count)
	for i := range coords {
		if coords[i] = int(le.Uint32(data[requestHeaderLen+4*i:])); coords[i] > math.MaxInt32 {
			return readRequest{}, badRequestError{fmt.Errorf("read request coordinate %d out of range", coords[i])}
		}
	}
	for i := range rects {
		c := coords[2*k*i:]
		rects[i] = grid.Rect{Lo: c[:k:k], Hi: c[k : 2*k : 2*k]}
		for _, prev := range rects[:i] {
			if overlap(prev, rects[i]) {
				return readRequest{}, badRequestError{fmt.Errorf("read request rects %v and %v overlap", prev, rects[i])}
			}
		}
	}
	return readRequest{
		Kind: data[4], Attr: int(le.Uint16(data[6:])), Epoch: le.Uint64(data[8:]), Priority: int(int32(le.Uint32(data[16:]))),
		Rects: rects,
	}, nil
}

// overlap reports whether rects a and b, of one dimensionality, share a
// bucket.
func overlap(a, b grid.Rect) bool {
	for i := range a.Lo {
		if a.Lo[i] > b.Hi[i] || b.Lo[i] > a.Hi[i] {
			return false
		}
	}
	return true
}

// aggregateResponse carries one partial aggregate, ready for
// aggregate.MergeAggregates at the router. Attr stays node-side.
type aggregateResponse struct {
	aggregate.AggregateResult
	Epoch uint64
}

func (a *aggregateResponse) appendTo(buf []byte) ([]byte, error) {
	buf = le.AppendUint64(le.AppendUint32(le.AppendUint32(buf[:0], uint32(a.Op)+1), uint32(a.Buckets)), uint64(a.Count))
	for _, v := range [3]float64{a.Sum, a.Min, a.Max} {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	return le.AppendUint64(buf, a.Epoch), nil
}

// decode reads an aggregate answer, checking content type, length and op.
func (a *aggregateResponse) decode(contentType string, data []byte) error {
	if contentType != aggregateContentType || len(data) != 48 || le.Uint32(data)-1 > uint32(aggregate.OpMax) {
		return fmt.Errorf("not an aggregate answer (%q, %d bytes)", contentType, len(data))
	}
	*a = aggregateResponse{Epoch: le.Uint64(data[40:]), AggregateResult: aggregate.AggregateResult{
		Op: aggregate.AggregateOp(le.Uint32(data) - 1), Buckets: int(le.Uint32(data[4:])), Count: int64(le.Uint64(data[8:])),
		Sum: math.Float64frombits(le.Uint64(data[16:])), Min: math.Float64frombits(le.Uint64(data[24:])),
		Max: math.Float64frombits(le.Uint64(data[32:])),
	}}
	return nil
}

// wireMap is a ShardMap in JSON clothing. A map is a pure function of
// this spec — geometry plus epoch plus member IDs — so shipping the
// spec ships the map; the receiver reconstructs shards and placement
// locally and bit-identically.
type wireMap struct {
	Grid     []int  `json:"grid"`
	Nodes    int    `json:"nodes"`
	Replicas int    `json:"replicas"`
	Stride   int    `json:"stride"`
	Epoch    uint64 `json:"epoch"`
	Members  []int  `json:"members"`
}

func toWireMap(sm *ShardMap) *wireMap {
	return &wireMap{
		Grid:     sm.Grid().Dims(),
		Nodes:    sm.Nodes(),
		Replicas: sm.Replicas(),
		Stride:   sm.Stride(),
		Epoch:    sm.Epoch(),
		Members:  append([]int(nil), sm.Members()...),
	}
}

// mapFromWire reconstructs the ShardMap a wireMap describes.
func mapFromWire(w *wireMap) (*ShardMap, error) {
	if w == nil {
		return nil, fmt.Errorf("cluster: nil wire map")
	}
	g, err := grid.New(w.Grid...)
	if err != nil {
		return nil, fmt.Errorf("cluster: wire map grid: %w", err)
	}
	return newShardMapAt(g, w.Nodes, w.Replicas, w.Stride, w.Epoch, w.Members)
}

// prepareRequest stages the next-epoch map on a node (PREPARE step).
type prepareRequest struct {
	Map *wireMap `json:"map"`
}

// epochRequest names a pending epoch (CUTOVER and ABORT steps).
type epochRequest struct {
	Epoch uint64 `json:"epoch"`
}

// epochResponse acknowledges a migration step with the node's resulting
// current and pending epochs.
type epochResponse struct {
	Epoch   uint64 `json:"epoch"`
	Pending uint64 `json:"pending,omitempty"`
}

// shardsResponse describes the node's view of the shard map.
type shardsResponse struct {
	Nodes     int         `json:"nodes"`
	Replicas  int         `json:"replicas"`
	Placement string      `json:"placement"`
	Grid      []int       `json:"grid"`
	Shards    []wireShard `json:"shards"`
}

// wireShard is one shard of a shardsResponse; only marshalled. Nodes
// holds the stable member IDs of the shard's holders, primary first.
type wireShard struct {
	ID    int      `json:"id"`
	Rect  wireRect `json:"rect"`
	Nodes []int    `json:"nodes"`
}

// errorBody is the uniform error envelope. Code is the stable taxonomy
// code; Message is human-oriented detail. Stale-epoch errors gossip the
// node's epochs and current map in the envelope so the caller can adopt
// it and retry without a discovery round-trip.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Epoch / NodeEpoch / Map are set only for CodeStaleEpoch.
	Epoch     uint64   `json:"epoch,omitempty"`      // the stale epoch the caller sent
	NodeEpoch uint64   `json:"node_epoch,omitempty"` // the node's current epoch
	Map       *wireMap `json:"map,omitempty"`        // the node's current map
}

// writeError encodes err as the uniform envelope with its mapped
// status.
func writeError(w http.ResponseWriter, err error) {
	code := ErrorCode(err)
	eb := errorBody{Code: code, Message: err.Error()}
	var stale *StaleEpochError
	if errors.As(err, &stale) {
		eb.Epoch = stale.RequestEpoch
		eb.NodeEpoch = stale.NodeEpoch
		if stale.Map != nil {
			eb.Map = toWireMap(stale.Map)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(HTTPStatus(code))
	_ = json.NewEncoder(w).Encode(eb)
}

// pageBufs recycles writePage's and decodeRequest's buffers; being a
// sync.Pool, the collector may drop them, so no node retains its largest
// answer.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// writePage answers 200 with p encoded into a pooled buffer, written once
// under its Content-Length. A page that cannot be encoded draws the JSON
// error envelope, not a half-written 200.
func writePage(w http.ResponseWriter, p binaryBody) {
	bp := pageBufs.Get().(*[]byte)
	defer pageBufs.Put(bp)
	buf, err := p.appendTo(*bp)
	if err != nil {
		writeError(w, err)
		return
	}
	*bp = buf
	w.Header().Set("Content-Type", p.contentType())
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	_, _ = w.Write(buf)
}

// writeJSON encodes v with status 200.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeErrorBody parses a non-2xx response body into a typed error.
// A body that isn't our envelope becomes a generic error carrying the
// status, so foreign proxies in the path degrade loudly, not silently.
// Stale-epoch envelopes reconstruct the node's map from its wire spec
// so the caller gets a ready-to-adopt *StaleEpochError.
func decodeErrorBody(status int, body []byte) error {
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code == "" {
		return fmt.Errorf("cluster: HTTP %d: %.200s", status, body)
	}
	if eb.Code == CodeStaleEpoch {
		se := &StaleEpochError{RequestEpoch: eb.Epoch, NodeEpoch: eb.NodeEpoch}
		if eb.Map != nil {
			if sm, err := mapFromWire(eb.Map); err == nil {
				se.Map = sm
			}
		}
		return se
	}
	return DecodeError(eb.Code, eb.Message)
}
