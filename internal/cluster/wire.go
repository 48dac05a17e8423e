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
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/grid"
)

// Wire shapes for the node HTTP API. The rule: records are frames,
// everything else and every error is JSON. The three record-carrying
// payloads — the 200 answers of /v1/query and /v1/bucket and the body of
// /v1/migrate/bucket — travel as one binary record frame, the bucket
// page as gridfile already holds it; errors travel as an errorBody whose
// Code round-trips through DecodeError back into the typed sentinel the
// node matched (see errors.go). Each payload has exactly one encoding,
// picked by its Go type and verified by Content-Type on receipt.
//
// Record frame (Content-Type frameContentType), little-endian:
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
// router stitch legs without mapping a value. /v1/bucket and
// /v1/migrate/bucket frames are one bucket and never counted.
//
// Endpoints:
//
//	POST /v1/query            queryRequest  → record frame
//	POST /v1/aggregate        aggregateRequest → aggregateResponse (disk-free kernel)
//	GET  /v1/bucket?cell=1,2,0              → record frame (rebuild/migration source)
//	GET  /v1/health                         → healthResponse
//	GET  /v1/shards                         → shardsResponse
//	POST /v1/migrate/prepare  prepareRequest → epochResponse
//	POST /v1/migrate/bucket   record frame  → epochResponse
//	POST /v1/migrate/cutover  epochRequest  → epochResponse
//	POST /v1/migrate/abort    epochRequest  → epochResponse
//
// Epochs: every data request carries the sender's map epoch (maps are
// born at epoch 1). An epoch the node does not serve — absent and zero
// included — draws CodeStaleEpoch with the node's current map attached,
// so the caller can adopt it and retry — the gossip path that lets
// routers follow migrations without a coordination service.
//
// Every client in the package (router legs, rebuilder, migrator, health
// probe) talks to a node through exchange, and every handler answers
// through writePage / writeJSON / writeError: a change of wire format
// edits those four functions. Every frame received, by a node or a
// client, passes parseFrame — the one validation — whether it is then
// materialised (decode) or gathered from in place (the router's legs).

// Payload size caps, chosen per call site: record-carrying payloads
// (query, bucket, migration ingest) versus fixed-size ones. exchange
// holds responses to them, the node's handlers request bodies.
const (
	recordPayloadLimit = 64 << 20
	smallPayloadLimit  = 1 << 20

	frameContentType = "application/x-decluster-page"
	frameMagic       = "DGP\x01"
	frameHeaderLen   = 24
)

var le = binary.LittleEndian

// recordPage is a record-carrying payload: a sub-query's answer, one
// bucket for a rebuild or migration, one bucket for a staging file.
type recordPage struct {
	Epoch    uint64 // map epoch the page was read, or is to be staged, under
	Buckets  int    // grid buckets the page covers
	Degraded bool   // some bucket came from a replica disk, not its primary
	Cell     []int  // the bucket a /v1/migrate/bucket page belongs to
	// Counts, when not nil, makes a counted frame: Buckets entries, how
	// many of Records each bucket holds, row-major, summing to
	// len(Records) — or the receiver refuses the frame.
	Counts  []int
	Records []datagen.Record
}

// appendTo frames p onto buf[:0]. A record set that is not k values wide
// throughout is refused rather than emitted as a ragged page.
func (p *recordPage) appendTo(buf []byte) ([]byte, error) {
	k := 0
	if len(p.Records) > 0 {
		k = len(p.Records[0].Values)
	}
	if uint64(p.Buckets) > math.MaxUint32 || len(p.Cell) > math.MaxUint8 || k > math.MaxUint16 || uint64(len(p.Records)) > math.MaxUint32 {
		return nil, fmt.Errorf("cluster: page of %d records × %d values over %d buckets does not fit a record frame", len(p.Records), k, p.Buckets)
	}
	flags := byte(0)
	if p.Degraded {
		flags |= 1
	}
	if p.Counts != nil {
		flags |= 2
	}
	buf = slices.Grow(buf[:0], frameHeaderLen+4*len(p.Cell)+4*len(p.Counts)+len(p.Records)*(8+8*k))
	buf = append(append(buf, frameMagic...), flags, byte(len(p.Cell)))
	buf = le.AppendUint16(buf, uint16(k))
	buf = le.AppendUint64(buf, p.Epoch)
	buf = le.AppendUint32(buf, uint32(p.Buckets))
	buf = le.AppendUint32(buf, uint32(len(p.Records)))
	for _, c := range p.Cell {
		buf = le.AppendUint32(buf, uint32(c))
	}
	for _, c := range p.Counts {
		buf = le.AppendUint32(buf, uint32(c))
	}
	for _, r := range p.Records {
		if len(r.Values) != k {
			return nil, fmt.Errorf("cluster: record %d has %d values in a page of %d-value records", r.ID, len(r.Values), k)
		}
		buf = le.AppendUint64(buf, uint64(r.ID))
		for _, v := range r.Values {
			buf = le.AppendUint64(buf, math.Float64bits(v))
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
// merges (a hedge or dual-read loser) is left to the collector instead.
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

// exchange performs one HTTP round trip against a node. A non-nil in is
// POSTed — a *recordPage as a record frame, anything else as JSON —
// otherwise the request is a GET; a positive timeout bounds this call on
// top of ctx. The response is read whole, sized from its Content-Length,
// and refused when longer than limit bytes — smallPayloadLimit for a
// non-200 answer, whatever the call site's cap: an error envelope is
// small. A non-200 answer decodes through decodeErrorBody into the typed
// error the node raised; a 200 decodes into out — a *recordPage or a
// *pageLeg from a record frame, anything else from JSON, nil discards it.
func exchange(ctx context.Context, client *http.Client, timeout time.Duration, url string, in, out any, limit int64) (err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	method, body, contentType := http.MethodGet, io.Reader(nil), "application/json"
	if in != nil {
		var data []byte
		var err error
		if page, ok := in.(*recordPage); ok {
			contentType = frameContentType
			data, err = page.appendTo(nil)
		} else {
			data, err = json.Marshal(in)
		}
		if err != nil {
			return err
		}
		method, body = http.MethodPost, bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", contentType)
		// Every POST in the protocol is idempotent by design — queries and
		// aggregates are reads; prepare, bucket ingest, cutover and abort
		// all tolerate replays. The header (its value is the endpoint's
		// last path segment) marks the POST replayable so the transport
		// transparently retries when a pooled keep-alive connection —
		// closed by a node that restarted since — surfaces EOF on first
		// reuse, instead of burning a whole attempt on a dead conn.
		req.Header.Set("Idempotency-Key", url[strings.LastIndexByte(url, '/')+1:])
	}
	resp, err := client.Do(req)
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
		return fmt.Errorf("cluster: %s: response exceeds %d bytes", url, limit)
	}
	if resp.StatusCode != http.StatusOK {
		return decodeErrorBody(resp.StatusCode, data)
	}
	switch out := out.(type) {
	case nil:
	case *recordPage:
		err = out.decode(resp.Header.Get("Content-Type"), data)
	case *pageLeg:
		out.frame, err = parseFrame(resp.Header.Get("Content-Type"), data)
	default:
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		return fmt.Errorf("cluster: %s: bad response body: %w", url, err)
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

// rect views the coordinates in place: a wireRect is decoded afresh for
// every request, so nothing else holds its slices.
func (w wireRect) rect() grid.Rect { return grid.Rect{Lo: w.Lo, Hi: w.Hi} }

// queryRequest asks a node to answer one sub-rectangle of a range
// query. The rect must fall entirely inside one shard the node hosts
// under the map at Epoch.
type queryRequest struct {
	Rect wireRect `json:"rect"`
	// Priority feeds the node's admission queue (higher first;
	// repair.BackgroundPriority for rebuild traffic).
	Priority int `json:"priority,omitempty"`
	// Epoch is the shard-map epoch the sender routed against.
	Epoch uint64 `json:"epoch,omitempty"`
}

// aggregateRequest asks a node to answer one aggregate over a
// sub-rectangle it hosts. Op travels as the batch.AggregateOp wire
// string ("count", "sum", "min", "max").
type aggregateRequest struct {
	Rect wireRect `json:"rect"`
	Op   string   `json:"op"`
	Attr int      `json:"attr,omitempty"`
	// Epoch is the shard-map epoch the sender routed against.
	Epoch uint64 `json:"epoch,omitempty"`
}

// aggregateResponse carries one partial aggregate, ready for
// batch.MergeAggregates at the router. Min/Max are meaningful only
// when Count > 0.
type aggregateResponse struct {
	Op      string  `json:"op"`
	Attr    int     `json:"attr,omitempty"`
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Buckets int     `json:"buckets"`
	Epoch   uint64  `json:"epoch,omitempty"`
}

// healthResponse summarises a node for operators and the harness.
type healthResponse struct {
	Node    int    `json:"node"`
	Shards  []int  `json:"shards"`
	Records int    `json:"records"`
	State   string `json:"state"` // "serving" | "rebuilding" | "migrating" | "standby"
	// Epoch is the node's current map epoch; Pending is the staged
	// next epoch mid-migration (0 when none).
	Epoch   uint64 `json:"epoch,omitempty"`
	Pending uint64 `json:"pending,omitempty"`
	// QueueDepth and Shed expose live admission backpressure — the
	// autopilot's scale signals, also mirrored into the
	// serve.node.queue.depth / serve.node.shed obs families.
	QueueDepth int    `json:"queue_depth"`
	Shed       uint64 `json:"shed"`
	// Latency* serialize the node's lifetime query-latency histogram:
	// ascending bucket upper bounds in nanoseconds, one count per
	// bucket plus the overflow bucket, and the total count/sum. The
	// reply is cumulative — a watcher windows it by diffing successive
	// probes — and is the autopilot's p99 source when its own router
	// is not the one carrying the query traffic.
	LatencyBounds []int64  `json:"latency_bounds,omitempty"`
	LatencyCounts []uint64 `json:"latency_counts,omitempty"`
	LatencyCount  uint64   `json:"latency_count,omitempty"`
	LatencySum    int64    `json:"latency_sum,omitempty"`
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
	Nodes     int        `json:"nodes"`
	Replicas  int        `json:"replicas"`
	Placement string     `json:"placement"`
	Grid      []int      `json:"grid"`
	Shards    []struct { // inline; only marshalled, never parsed by us
		ID    int      `json:"id"`
		Rect  wireRect `json:"rect"`
		Nodes []int    `json:"nodes"`
	} `json:"shards"`
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

// pageBufs recycles writePage's encode buffers; being a sync.Pool, the
// collector may drop them, so no node retains its largest answer.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// writePage answers 200 with p as one record frame, encoded into a
// pooled buffer and written once under its Content-Length. A page that
// cannot be framed draws the JSON error envelope, not a half-written 200.
func writePage(w http.ResponseWriter, p *recordPage) {
	bp := pageBufs.Get().(*[]byte)
	defer pageBufs.Put(bp)
	buf, err := p.appendTo(*bp)
	if err != nil {
		writeError(w, err)
		return
	}
	*bp = buf
	w.Header().Set("Content-Type", frameContentType)
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
