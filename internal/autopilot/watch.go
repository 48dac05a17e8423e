package autopilot

import (
	"context"
	"net/http"
	"sync"
	"time"

	"decluster/internal/cluster"
	"decluster/internal/obs"
)

// tickSample is one tick's cumulative observations — the ring of these
// is what turns the nodes' lifetime counters into sliding windows. Both
// are kept per member, not summed, so one member's counter reset after a
// restart re-anchors only that member instead of corrupting the
// cluster-wide window (see window.go).
type tickSample struct {
	at      time.Time
	latency []obs.HistogramSnapshot // per member, node-reported via /v1/health
	shedPer []uint64
}

// watcher assembles Signals each tick: windowed per-node p99 from the
// latency histogram each node reports in its health reply, live queue
// depth / shed / epoch / standby state from the same parallel
// /v1/health probes, breaker state straight from the router. The nodes'
// own histograms are the one latency source, so an embedded controller
// and a standalone one (whose router serves no queries) read the same.
type watcher struct {
	router    *cluster.Router
	endpoints []string
	client    *http.Client
	timeout   time.Duration
	window    int
	ring      []tickSample // oldest first, ≤ window entries
}

// probe is one endpoint's health answer (or its absence).
type probe struct {
	member int
	ok     bool
	h      cluster.Health
}

// collect gathers one tick's Signals. It probes every endpoint in
// parallel under the probe timeout and differences against the oldest
// ring entry for the windowed view.
func (w *watcher) collect(now time.Time) Signals {
	sm := w.router.Map()
	var sig Signals
	sig.Nodes = sm.Nodes()
	sig.BreakersOpen = len(w.router.Breakers().Open())

	// Parallel health probes: live backpressure, epochs, standbys.
	probes := make([]probe, len(w.endpoints))
	ctx, cancel := context.WithTimeout(context.Background(), w.timeout)
	var wg sync.WaitGroup
	for i, url := range w.endpoints {
		if url == "" {
			continue
		}
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			h, err := cluster.ProbeHealth(ctx, w.client, url)
			probes[i] = probe{member: i, ok: err == nil, h: h}
		}(i, url)
	}
	wg.Wait()
	cancel()

	inMap := make(map[int]bool, sig.Nodes)
	for _, m := range sm.Members() {
		inMap[m] = true
	}
	joiner := sm.MaxMember() + 1 // the member ID PlanJoin will assign
	shedPer := make([]uint64, len(w.endpoints))
	latency := make([]obs.HistogramSnapshot, len(w.endpoints))
	epochs := make(map[uint64]bool)
	for i := range probes {
		p := &probes[i]
		if w.endpoints[i] == "" {
			continue
		}
		if !p.ok {
			if inMap[i] {
				sig.Unreachable++
			}
			// Carry the last known cumulative counters forward so a
			// missed probe reads as "no new sheds", not as a counter
			// reset.
			if last := len(w.ring) - 1; last >= 0 && i < len(w.ring[last].shedPer) {
				shedPer[i] = w.ring[last].shedPer[i]
			}
			continue
		}
		shedPer[i] = p.h.Shed
		latency[i] = p.h.Latency
		if p.h.Pending != 0 {
			sig.MigrationInFlight = true
		}
		if p.h.Standby() {
			if p.h.Node == joiner {
				sig.StandbyReady = true
			}
			continue
		}
		if inMap[p.h.Node] {
			epochs[p.h.Epoch] = true
			if p.h.QueueDepth > sig.QueueDepth {
				sig.QueueDepth = p.h.QueueDepth
			}
		}
	}
	sig.EpochSplit = len(epochs) > 1

	// Windowed latency and shed rate: current cumulative sample minus
	// the oldest retained one, re-anchored per member when a node
	// restart reset its counters (window.go).
	cur := tickSample{at: now, latency: latency, shedPer: shedPer}
	if len(w.ring) > 0 {
		old := w.ring[0]
		if span := now.Sub(old.at); span > 0 {
			var shed uint64
			for m := range cur.shedPer {
				var prev uint64
				if m < len(old.shedPer) {
					prev = old.shedPer[m]
				}
				shed += windowCounter(cur.shedPer[m], prev)
			}
			if shed > 0 {
				sig.ShedRate = float64(shed) / span.Seconds()
			}
			for m := range cur.latency {
				if !inMap[m] {
					continue
				}
				var prev obs.HistogramSnapshot
				if m < len(old.latency) {
					prev = old.latency[m]
				}
				if p99 := windowHistogram(cur.latency[m], prev).Percentile(99); p99 > sig.P99 {
					sig.P99 = p99
				}
			}
		}
	}
	w.ring = append(w.ring, cur)
	if len(w.ring) > w.window {
		w.ring = w.ring[1:]
	}
	return sig
}
