package cluster

import (
	"context"
	"fmt"
	"net/http"

	"decluster/internal/obs"
)

// Health is one node's answer to a GET /v1/health probe — the
// discovery and partition-detection surface the autopilot controller
// runs on. Standby nodes (booted with an ID outside the current map)
// answer State "standby" with no shards, which is how spare capacity
// is found without any registration protocol.
type Health struct {
	// Node is the responder's stable member ID.
	Node int
	// Shards lists the shard IDs the node currently hosts (empty for a
	// standby).
	Shards []int
	// Records is the node's current record count.
	Records int
	// State is "serving", "rebuilding", "migrating", or "standby".
	State string
	// Epoch is the node's current map epoch; Pending the staged next
	// epoch mid-migration (0 when none). Epoch disagreement across
	// serving nodes is the controller's partition-suspected fuse.
	Epoch, Pending uint64
	// QueueDepth and Shed are the node's live admission backpressure:
	// current queue length and lifetime shed count.
	QueueDepth int
	Shed       uint64
	// Latency is the node's lifetime query-latency histogram as the
	// node itself measured it. Cumulative: window it by diffing
	// successive probes (HistogramSnapshot.Sub). This is how a
	// controller sees serving latency when its own router carries no
	// query traffic.
	Latency obs.HistogramSnapshot
}

// Standby reports an idle standby: in the pool, not in the map.
func (h Health) Standby() bool { return h.State == "standby" }

// ProbeHealth queries one node's health endpoint. client may be nil
// for http.DefaultClient; the caller bounds the probe via ctx.
func ProbeHealth(ctx context.Context, client *http.Client, base string) (Health, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var hr healthResponse
	if err := exchange(ctx, client, 0, base+"/v1/health", nil, &hr, smallPayloadLimit); err != nil {
		return Health{}, fmt.Errorf("cluster: health probe of %s: %w", base, err)
	}
	return Health{
		Node:       hr.Node,
		Shards:     hr.Shards,
		Records:    hr.Records,
		State:      hr.State,
		Epoch:      hr.Epoch,
		Pending:    hr.Pending,
		QueueDepth: hr.QueueDepth,
		Shed:       hr.Shed,
		Latency: obs.HistogramSnapshot{
			Bounds: hr.LatencyBounds,
			Counts: hr.LatencyCounts,
			Count:  hr.LatencyCount,
			Sum:    hr.LatencySum,
		},
	}, nil
}
