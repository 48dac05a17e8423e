package serve

import "decluster/internal/obs"

// serveMetrics holds the scheduler's pre-resolved metric handles. The
// zero value (all nil) is the disabled state: every handle method
// no-ops on a nil receiver, so instrumented sites cost one branch.
// Counters mirror the Stats fields increment-for-increment at the same
// sites, which is what lets the conservation test compare the two
// exactly; closedShed has no Stats twin — it counts queries shed by
// Close (the flushed queue plus post-close arrivals), completing the
// identity issued == admitted + rejected + evicted + expired +
// abandoned + closed.
type serveMetrics struct {
	issued, admitted, completed, unavailable, failed  *obs.Counter
	rejected, evicted, expired, abandoned, closedShed *obs.Counter
	hedgesIssued, hedgesWon                           *obs.Counter
	// legs counts reads servedReader actually launched: one per
	// executor attempt plus one per hedge, so
	// legs == exec.read.attempts + serve.hedges.issued.
	legs                                            *obs.Counter
	breakerOpened, breakerHalfOpened, breakerClosed *obs.Counter
	queueDepth, inFlight                            *obs.Gauge
	queueWait, queryLatency, legLatency             *obs.Histogram
	// nodeQueueDepth and nodeShed are this scheduler's slots in the
	// per-node backpressure families (nil unless WithNodeMetrics is
	// set). They move in lockstep with queueDepth and the four shed
	// classes plus closedShed, giving controllers and -metrics dumps a
	// live per-node view of pressure that Stats only reveals at drain.
	nodeQueueDepth *obs.Gauge
	nodeShed       *obs.Counter
}

// newServeMetrics registers the scheduler's metric set. Everything is
// registered here at construction — not lazily on first event — so the
// dump's name set is deterministic.
func newServeMetrics(r *obs.Registry) serveMetrics {
	return serveMetrics{
		issued:            r.Counter("serve.queries.issued"),
		admitted:          r.Counter("serve.queries.admitted"),
		completed:         r.Counter("serve.queries.completed"),
		unavailable:       r.Counter("serve.queries.unavailable"),
		failed:            r.Counter("serve.queries.failed"),
		rejected:          r.Counter("serve.queries.rejected"),
		evicted:           r.Counter("serve.queries.evicted"),
		expired:           r.Counter("serve.queries.expired"),
		abandoned:         r.Counter("serve.queries.abandoned"),
		closedShed:        r.Counter("serve.queries.closed"),
		hedgesIssued:      r.Counter("serve.hedges.issued"),
		hedgesWon:         r.Counter("serve.hedges.won"),
		legs:              r.Counter("serve.reads.legs"),
		breakerOpened:     r.Counter("serve.breaker.opened"),
		breakerHalfOpened: r.Counter("serve.breaker.halfopened"),
		breakerClosed:     r.Counter("serve.breaker.reclosed"),
		queueDepth:        r.Gauge("serve.queue.depth"),
		inFlight:          r.Gauge("serve.inflight"),
		queueWait:         r.Histogram("serve.queue.wait"),
		queryLatency:      r.Histogram("serve.query.latency"),
		legLatency:        r.Histogram("serve.read.leg.latency"),
	}
}

// attachNodeMetrics resolves this scheduler's slots in the shared
// per-node families, growing them to cover node.
func (m *serveMetrics) attachNodeMetrics(r *obs.Registry, node int) {
	m.nodeQueueDepth = r.GaugeFamily("serve.node.queue.depth", "node", node+1).At(node)
	m.nodeShed = r.CounterFamily("serve.node.shed", "node", node+1).At(node)
}
