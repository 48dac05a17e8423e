package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/grid"
)

// Wire shapes for the node HTTP API. Everything is JSON; errors travel
// as an errorBody whose Code round-trips through DecodeError back into
// the typed sentinel the node matched (see errors.go).
//
// Endpoints:
//
//	POST /v1/query            queryRequest  → queryResponse
//	POST /v1/aggregate        aggregateRequest → aggregateResponse (disk-free kernel)
//	GET  /v1/bucket?cell=1,2,0              → bucketResponse (rebuild/migration source)
//	GET  /v1/health                         → healthResponse
//	GET  /v1/shards                         → shardsResponse
//	POST /v1/migrate/prepare  prepareRequest → epochResponse
//	POST /v1/migrate/bucket   migrateBucketRequest → epochResponse
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
// through writeJSON / writeError: a change of wire format edits those
// three functions.

// Response size caps, chosen per call site: record-carrying payloads
// (query, bucket, migration acks) versus fixed-size answers.
const (
	recordPayloadLimit = 64 << 20
	smallPayloadLimit  = 1 << 20
)

// exchange performs one HTTP round trip against a node. A non-nil in is
// POSTed as JSON, otherwise the request is a GET; a positive timeout
// bounds this call on top of ctx; the response body is read up to limit
// bytes. A non-200 answer decodes through decodeErrorBody into the typed
// error the node raised; a 200 decodes into out (nil discards it).
func exchange(ctx context.Context, client *http.Client, timeout time.Duration, url string, in, out any, limit int64) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		data, err := json.Marshal(in)
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
		req.Header.Set("Content-Type", "application/json")
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
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeErrorBody(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
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

// wireRecord is a datagen.Record in JSON clothing.
type wireRecord struct {
	ID     int       `json:"id"`
	Values []float64 `json:"values"`
}

func toWireRecords(recs []datagen.Record) []wireRecord {
	out := make([]wireRecord, len(recs))
	for i, r := range recs {
		out[i] = wireRecord{ID: r.ID, Values: r.Values}
	}
	return out
}

func fromWireRecords(ws []wireRecord) []datagen.Record {
	out := make([]datagen.Record, len(ws))
	for i, w := range ws {
		out[i] = datagen.Record{ID: w.ID, Values: w.Values}
	}
	return out
}

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

// queryResponse carries a sub-query's answer.
type queryResponse struct {
	Records []wireRecord `json:"records"`
	// Buckets is how many grid buckets the rect covered (observability).
	Buckets int `json:"buckets"`
	// Degraded reports the node answered some bucket from a replica
	// disk rather than its primary.
	Degraded bool `json:"degraded,omitempty"`
	// Epoch is the map epoch the answer was computed under.
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

// bucketResponse carries one bucket's records for cross-node rebuild
// and migration.
type bucketResponse struct {
	Records []wireRecord `json:"records"`
	// Epoch is the donor's current map epoch.
	Epoch uint64 `json:"epoch,omitempty"`
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

// migrateBucketRequest hands one bucket's records to a destination
// node's staging file for the pending epoch.
type migrateBucketRequest struct {
	Epoch   uint64       `json:"epoch"`
	Cell    []int        `json:"cell"`
	Records []wireRecord `json:"records"`
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
