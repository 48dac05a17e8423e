package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"decluster/internal/obs"
)

// BreakerState is one of the three classic circuit-breaker states.
type BreakerState int

const (
	// BreakerClosed: the disk serves traffic normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the disk is considered sick; the router steers
	// queries to its replicas for the cooldown period.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; a bounded number of probe
	// reads decide whether the disk is healthy again.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig tunes the per-disk health tracker and circuit breaker.
// The zero value selects the documented defaults; use the negative
// sentinels to disable a trip condition explicitly.
type BreakerConfig struct {
	// ErrorThreshold is the number of consecutive failed reads that
	// opens a disk's breaker (default 5; negative disables error
	// tripping).
	ErrorThreshold int
	// LatencyThreshold opens the breaker when the disk's EWMA read
	// latency exceeds it (default 0 = disabled).
	LatencyThreshold time.Duration
	// MinSamples is the minimum number of latency observations before
	// LatencyThreshold can trip (default 16).
	MinSamples int
	// Cooldown is how long an open breaker waits before going half-open
	// (default 25ms).
	Cooldown time.Duration
	// HalfOpenProbes is the number of consecutive successful reads in
	// half-open state that close the breaker again (default 3).
	HalfOpenProbes int
	// Alpha is the EWMA smoothing factor in (0, 1] (default 0.2).
	Alpha float64
}

func (c BreakerConfig) withDefaults() (BreakerConfig, error) {
	switch {
	case c.ErrorThreshold < 0:
		c.ErrorThreshold = 0 // disabled
	case c.ErrorThreshold == 0:
		c.ErrorThreshold = 5
	}
	if c.LatencyThreshold < 0 {
		return c, fmt.Errorf("serve: negative latency threshold %v", c.LatencyThreshold)
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	switch {
	case c.Cooldown < 0:
		return c, fmt.Errorf("serve: negative breaker cooldown %v", c.Cooldown)
	case c.Cooldown == 0:
		c.Cooldown = 25 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	switch {
	case c.Alpha == 0:
		c.Alpha = 0.2
	case c.Alpha < 0 || c.Alpha > 1:
		return c, fmt.Errorf("serve: EWMA alpha %v outside (0,1]", c.Alpha)
	}
	return c, nil
}

// DiskHealth is one disk's health snapshot.
type DiskHealth struct {
	Disk        int
	State       BreakerState
	EWMALatency time.Duration
	Reads       uint64 // completed read observations (including errors)
	Errors      uint64 // failed read observations
	Trips       uint64 // closed/half-open → open transitions
}

// diskTracker is the per-disk mutable health state. Everything is
// written under mu; unsettled and ewma are atomics so that what every
// read asks — is the breaker closed, and for a hedged read how slow is
// the disk — is answered without it.
type diskTracker struct {
	mu         sync.Mutex
	state      BreakerState
	unsettled  atomic.Bool   // state != BreakerClosed; setState keeps the two in step
	ewma       atomic.Uint64 // float64 bits, nanoseconds
	openedAt   time.Time
	samples    int
	reads      uint64
	errs       uint64
	consecErrs int
	probes     int // consecutive half-open successes
	trips      uint64
}

// Breakers tracks per-endpoint EWMA latency and error rate and drives
// one circuit breaker per endpoint: the scheduler breaks per disk, and
// the cluster router holds the same type to break per *node*, so both
// share one state machine (EWMA latency, consecutive-error trips,
// cooldown, half-open probes). Endpoints are indexed 0..n-1; what an
// endpoint is, is the caller's business. All methods are safe for
// concurrent use.
type Breakers struct {
	cfg   BreakerConfig
	disks []*diskTracker
	trips atomic.Uint64
	// Breaker state-transition counters; nil (no-op) until attachObs,
	// which runs before any traffic.
	opened, halfOpened, reclosed *obs.Counter
}

// NewBreakers builds a breaker set over n endpoints. The zero
// BreakerConfig selects the documented defaults.
func NewBreakers(cfg BreakerConfig, n int) (*Breakers, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	h := &Breakers{cfg: cfg, disks: make([]*diskTracker, n)}
	for d := range h.disks {
		h.disks[d] = &diskTracker{}
	}
	return h, nil
}

// attachObs installs the breaker transition counters.
func (h *Breakers) attachObs(opened, halfOpened, reclosed *obs.Counter) {
	h.opened, h.halfOpened, h.reclosed = opened, halfOpened, reclosed
}

// AttachObserver registers the set's state-transition counters under
// the given metric name prefix (e.g. "cluster.node.breaker") in the
// sink's registry:
//
//	<prefix>.opened  <prefix>.halfopened  <prefix>.closed
//
// A nil sink is a no-op. Call before traffic starts.
func (h *Breakers) AttachObserver(s *obs.Sink, prefix string) {
	if s == nil {
		return
	}
	r := s.Registry()
	h.attachObs(r.Counter(prefix+".opened"), r.Counter(prefix+".halfopened"), r.Counter(prefix+".closed"))
}

// observable reports whether err should count against the disk's
// health: injected fault classes and real read failures do, context
// cancellations (a hedge losing the race, a query deadline) do not.
func observable(err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// Observe records the outcome of one call against endpoint d and
// advances its breaker state machine. Context cancellations are not
// counted (see observable).
func (h *Breakers) Observe(d int, lat time.Duration, err error) {
	if d < 0 || d >= len(h.disks) || !observable(err) {
		return
	}
	t := h.disks[d]
	t.mu.Lock()
	defer t.mu.Unlock()
	h.tickLocked(t)
	t.reads++
	if err != nil {
		t.errs++
		t.consecErrs++
		switch t.state {
		case BreakerClosed:
			if h.cfg.ErrorThreshold > 0 && t.consecErrs >= h.cfg.ErrorThreshold {
				h.tripLocked(t)
			}
		case BreakerHalfOpen:
			// A failed probe re-opens immediately.
			h.tripLocked(t)
		}
		return
	}
	t.consecErrs = 0
	// Latency only means something for successful reads; injected
	// errors return in ~0 time.
	ewma := float64(lat)
	if t.samples > 0 {
		a := h.cfg.Alpha
		ewma = a*ewma + (1-a)*t.latency()
	}
	t.ewma.Store(math.Float64bits(ewma))
	t.samples++
	switch t.state {
	case BreakerClosed:
		if h.slowLocked(t, ewma) {
			h.tripLocked(t)
		}
	case BreakerHalfOpen:
		t.probes++
		if t.probes >= h.cfg.HalfOpenProbes {
			// Close and forget the sick-era latency so a recovered disk
			// is judged on fresh samples.
			t.setState(BreakerClosed)
			t.ewma.Store(0)
			t.samples = 0
			h.reclosed.Inc()
		}
	}
}

// cleanRun is a run of clean reads of one endpoint awaiting fold: its n
// latency samples x₁…xₙ in closed form, so that booking them costs one
// EWMA step whatever n is. Unrolled, n steps of Observe's EWMA from e are
// (1−α)ⁿ·e + Σ α(1−α)ⁿ⁻ⁱ·xᵢ, and seeding e with x₁ reproduces Observe's
// first sample exactly.
type cleanRun struct {
	n     int
	sum   float64 // Σ α(1−α)ⁿ⁻ⁱ·xᵢ
	decay float64 // (1−α)ⁿ
	first float64 // x₁
}

// add appends the sample x under the smoothing factor alpha.
func (r *cleanRun) add(x, alpha float64) {
	if r.n == 0 {
		r.decay, r.first = 1, x
	}
	r.sum = (1-alpha)*r.sum + alpha*x
	r.decay *= 1 - alpha
	r.n++
}

// fold books run against endpoint d under one lock, as n clean Observe
// calls would on a closed breaker — the EWMA by the closed form, reads
// and samples up by n, the error streak broken — and empties run. The
// latency trip is checked once, at the fold. Probes are not counted:
// callers fold only reads they made while the breaker was closed, and
// observe the others one by one.
func (h *Breakers) fold(d int, run *cleanRun) {
	if run.n == 0 {
		return
	}
	t := h.disks[d]
	t.mu.Lock()
	h.tickLocked(t)
	ewma := t.latency()
	if t.samples == 0 {
		ewma = run.first
	}
	ewma = run.decay*ewma + run.sum
	t.ewma.Store(math.Float64bits(ewma))
	t.reads += uint64(run.n)
	t.samples += run.n
	t.consecErrs = 0
	if t.state == BreakerClosed && h.slowLocked(t, ewma) {
		h.tripLocked(t)
	}
	t.mu.Unlock()
	*run = cleanRun{}
}

// slowLocked reports whether t, at EWMA ewma, meets the latency trip.
func (h *Breakers) slowLocked(t *diskTracker, ewma float64) bool {
	return h.cfg.LatencyThreshold > 0 && t.samples >= h.cfg.MinSamples && ewma > float64(h.cfg.LatencyThreshold)
}

// closed reports whether d's breaker is closed, from one atomic load.
func (h *Breakers) closed(d int) bool { return !h.disks[d].unsettled.Load() }

// setState moves the breaker; callers hold mu.
func (t *diskTracker) setState(s BreakerState) {
	t.state = s
	t.unsettled.Store(s != BreakerClosed)
}

// latency is the disk's EWMA read latency in nanoseconds.
func (t *diskTracker) latency() float64 { return math.Float64frombits(t.ewma.Load()) }

// tripLocked opens the breaker of t.
func (h *Breakers) tripLocked(t *diskTracker) {
	t.setState(BreakerOpen)
	t.openedAt = time.Now()
	t.probes = 0
	t.trips++
	h.trips.Add(1)
	h.opened.Inc()
}

// tickLocked advances open → half-open once the cooldown elapses.
func (h *Breakers) tickLocked(t *diskTracker) {
	if t.state == BreakerOpen && time.Since(t.openedAt) >= h.cfg.Cooldown {
		t.setState(BreakerHalfOpen)
		t.probes = 0
		t.consecErrs = 0
		h.halfOpened.Inc()
	}
}

// Allow reports whether disk d may be targeted by new speculative work
// (hedges): open disks may not, half-open and closed disks may. A closed
// breaker — the healthy case, asked on every hedged read — answers from
// one atomic load; only a closed breaker has no clock to tick.
func (h *Breakers) Allow(d int) bool {
	if d < 0 || d >= len(h.disks) {
		return false
	}
	t := h.disks[d]
	if !t.unsettled.Load() {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h.tickLocked(t)
	return t.state != BreakerOpen
}

// Open lists the endpoints whose breaker is currently open — the set
// the executor's router proactively avoids. Half-open disks are not
// listed: their probe traffic is how they prove recovery.
func (h *Breakers) Open() []int {
	var out []int
	for d, t := range h.disks {
		t.mu.Lock()
		h.tickLocked(t)
		if t.state == BreakerOpen {
			out = append(out, d)
		}
		t.mu.Unlock()
	}
	return out
}

// Cooldown is how long an open breaker waits before going half-open.
func (h *Breakers) Cooldown() time.Duration { return h.cfg.Cooldown }

// Trips returns the total breaker trips across all disks.
func (h *Breakers) Trips() uint64 { return h.trips.Load() }

// EWMALatency returns disk d's smoothed observed latency (zero before
// any sample, and freshly zeroed when a breaker recloses).
func (h *Breakers) EWMALatency(d int) time.Duration {
	if d < 0 || d >= len(h.disks) {
		return 0
	}
	return time.Duration(h.disks[d].latency())
}

// Snapshot copies every disk's health.
func (h *Breakers) Snapshot() []DiskHealth {
	out := make([]DiskHealth, len(h.disks))
	for d, t := range h.disks {
		t.mu.Lock()
		h.tickLocked(t)
		out[d] = DiskHealth{
			Disk:        d,
			State:       t.state,
			EWMALatency: time.Duration(t.latency()),
			Reads:       t.reads,
			Errors:      t.errs,
			Trips:       t.trips,
		}
		t.mu.Unlock()
	}
	return out
}
