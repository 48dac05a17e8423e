package cluster

import (
	"context"
	"fmt"
	"net/http"

	"decluster/internal/obs"
)

// Health is one node's answer to a GET /v1/health probe, as it crosses
// the wire — the discovery and partition-detection surface the autopilot
// controller runs on. Standby nodes (booted with an ID outside the
// current map) answer State "standby" with no shards, which is how spare
// capacity is found without any registration protocol.
type Health struct {
	// Node is the responder's stable member ID.
	Node int `json:"node"`
	// Shards lists the shard IDs the node currently hosts (empty for a
	// standby).
	Shards []int `json:"shards"`
	// Records is the node's current record count.
	Records int `json:"records"`
	// State is "serving", "rebuilding", "migrating", or "standby".
	State string `json:"state"`
	// Epoch is the node's current map epoch; Pending the staged next
	// epoch mid-migration (0 when none). Epoch disagreement across
	// serving nodes is the controller's partition-suspected fuse.
	Epoch   uint64 `json:"epoch,omitempty"`
	Pending uint64 `json:"pending,omitempty"`
	// QueueDepth and Shed are the node's live admission backpressure:
	// current queue length and lifetime shed count, also mirrored into
	// the serve.node.queue.depth / serve.node.shed obs families.
	QueueDepth int    `json:"queue_depth"`
	Shed       uint64 `json:"shed"`
	// Latency is the node's lifetime query-latency histogram as the
	// node itself measured it, foreground reads only. Cumulative: window
	// it by diffing successive probes (HistogramSnapshot.Sub). This is
	// how a controller sees serving latency when its own router carries
	// no query traffic.
	Latency obs.HistogramSnapshot `json:"latency"`
}

// Standby reports an idle standby: in the pool, not in the map.
func (h Health) Standby() bool { return h.State == "standby" }

// ProbeHealth queries one node's health endpoint. client may be nil
// for http.DefaultClient; the caller bounds the probe via ctx.
func ProbeHealth(ctx context.Context, client *http.Client, base string) (Health, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var h Health
	to, err := newRoute(base+"/v1/health", "")
	if err == nil {
		err = exchange(ctx, client, 0, &to, nil, &h, smallPayloadLimit)
	}
	if err != nil {
		return Health{}, fmt.Errorf("cluster: health probe of %s: %w", base, err)
	}
	return h, nil
}
