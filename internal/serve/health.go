package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"decluster/internal/hedge"
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

// diskTracker is the per-disk mutable health state. The breaker is
// written under mu; unsettled and ewma are atomics so that what every
// read asks — is the breaker closed, and for a hedged read how slow is
// the disk — is answered without it. standing is routing state, which
// the breaker never reads, and only ever moved atomically.
type diskTracker struct {
	mu        sync.Mutex
	state     BreakerState
	unsettled atomic.Bool   // state != BreakerClosed; setState keeps the two in step
	ewma      atomic.Uint64 // float64 bits, nanoseconds
	// standing is 0 while the endpoint is in good standing; otherwise it
	// is on probation and the stamp is the earliest its next probe may
	// lead (see Lead).
	standing   atomic.Int64
	openedAt   int64 // the clock's stamp of the last trip
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
// cooldown, half-open probes) and one holder-choice rule (Lead, Backup,
// Settle). Endpoints are indexed 0..n-1; what an endpoint is, is the
// caller's business. An endpoint the set does not track — a cluster
// member that joined after the set was built — is allowed, in good
// standing and at EWMA 0, and its outcomes are not booked. All methods
// are safe for concurrent use.
type Breakers struct {
	cfg   BreakerConfig
	disks []*diskTracker
	now   func() int64 // hedge.Now: cooldowns and probation run on its stamps
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
	h := &Breakers{cfg: cfg, disks: make([]*diskTracker, n), now: hedge.Now}
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
	t := h.tracker(d)
	if t == nil || !observable(err) {
		return
	}
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
func (t *diskTracker) latency() float64 {
	if t == nil {
		return 0
	}
	return math.Float64frombits(t.ewma.Load())
}

// tripLocked opens the breaker of t.
func (h *Breakers) tripLocked(t *diskTracker) {
	t.setState(BreakerOpen)
	t.openedAt = h.now()
	t.probes = 0
	t.trips++
	h.trips.Add(1)
	h.opened.Inc()
}

// tickLocked advances open → half-open once the cooldown elapses.
func (h *Breakers) tickLocked(t *diskTracker) {
	if t.state == BreakerOpen && h.now()-t.openedAt >= int64(h.cfg.Cooldown) {
		t.setState(BreakerHalfOpen)
		t.probes = 0
		t.consecErrs = 0
		h.halfOpened.Inc()
	}
}

// tracker returns endpoint d's tracker, nil for one the set does not
// track; allow, latency and onProbation read nil as an untracked
// endpoint: allowed, at EWMA 0 and in good standing.
func (h *Breakers) tracker(d int) *diskTracker {
	if d < 0 || d >= len(h.disks) {
		return nil
	}
	return h.disks[d]
}

// Allow reports whether disk d may be targeted by new speculative work
// (hedges): open disks may not, half-open and closed disks may. A closed
// breaker — the healthy case, asked on every hedged read — answers from
// one atomic load; only a closed breaker has no clock to tick.
func (h *Breakers) Allow(d int) bool { return h.allow(h.tracker(d)) }

// allow is Allow on a resolved tracker.
func (h *Breakers) allow(t *diskTracker) bool {
	if t == nil || !t.unsettled.Load() {
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
	return time.Duration(h.tracker(d).latency())
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

// Lead returns the holder that leads attempt number attempt (from 0) of a
// read that any of holders can answer: rotation position attempt mod
// len(holders), advanced past open breakers when any holder is allowed
// (when none is, the rotation's choice stands — a probe has to go
// somewhere or an open breaker could never heal). A first attempt is
// also advanced past holders on probation when an allowed holder in good
// standing exists; when none does, the first allowed holder leads anyway,
// so probation never leaves a read without a lead it could have had. A
// holder in good standing costs one atomic load and no clock read.
func (h *Breakers) Lead(holders []int, attempt int) int {
	n := len(holders)
	lead := -1
	for off := 0; off < n; off++ {
		c := holders[(attempt+off)%n]
		t := h.tracker(c)
		if !h.allow(t) {
			continue
		}
		if attempt > 0 || t == nil {
			return c
		}
		// On probation, c is passed over until its stamp comes due; then
		// exactly one caller wins the compare-and-swap that pushes the stamp
		// a cooldown out and leads with c — the probe — and every other
		// caller keeps away for that cooldown.
		due := t.standing.Load()
		if due == 0 {
			return c
		}
		if now := h.now(); now >= due && t.standing.CompareAndSwap(due, now+int64(h.cfg.Cooldown)) {
			return c
		}
		if lead < 0 {
			lead = c
		}
	}
	if lead >= 0 {
		return lead
	}
	return holders[attempt%n]
}

// Leads reports whether endpoint d, listed first, leads a first attempt
// (Lead): its breaker allows it and it is in good standing. Unlike Lead
// it never claims a probation probe; a healthy endpoint costs one atomic
// load.
func (h *Breakers) Leads(d int) bool {
	t := h.tracker(d)
	return h.allow(t) && !t.onProbation()
}

// Backup returns the holder that a read led by lead races — the first
// allowed holder other than lead, preferring one in good standing; -1
// when after <= 0 (hedging off) or none exists — and the delay the timed
// hedge to it is worth: after when hedge.Worth, on the two holders' EWMA
// latencies, says a timed hedge is worth issuing, 0 when it does not or
// the backup is on probation. It is the hedge gate. The router asks it
// at each attempt's start, for the target and the delay; a disk read
// arms every race at the configured delay and asks it, through the
// race's hedge.Racer.Gate, only when the race comes due, so a healthy
// read that answers inside the delay never asks. A zero delay still
// leaves the backup as the failover target of a lead that fails
// outright. Probation ranks holders against one in good standing: a
// lead on probation itself (Lead found no better one) races its backup
// as if nobody were on probation.
func (h *Breakers) Backup(holders []int, lead int, after time.Duration) (b int, delay time.Duration) {
	if after <= 0 {
		return -1, 0
	}
	b = -1
	tl := h.tracker(lead)
	for _, c := range holders {
		t := h.tracker(c)
		if c == lead || !h.allow(t) {
			continue
		}
		if t.onProbation() && !tl.onProbation() {
			if b < 0 {
				b = c
			}
			continue
		}
		if hedge.Worth(after, time.Duration(tl.latency()), time.Duration(t.latency())) {
			return c, after
		}
		return c, 0
	}
	return b, 0
}

// Settle books how endpoint d's lead ended and reports whether d went on
// probation. Overtaken by its timed hedge, d goes on probation — or stays
// on it — for one Cooldown: the one race that proves a straggler is what
// it is learnt from, because the cancelled leg leaves no latency sample.
// Having won, d is in good standing again. An endpoint nobody settles is
// never on probation.
func (h *Breakers) Settle(d int, won, overtaken bool) (entered bool) {
	t := h.tracker(d)
	switch {
	case t == nil:
	case won:
		if due := t.standing.Load(); due != 0 {
			t.standing.CompareAndSwap(due, 0)
		}
	case overtaken:
		return t.standing.Swap(h.now()+int64(h.cfg.Cooldown)) == 0
	}
	return false
}

// OnProbation lists the endpoints on probation: overtaken as a lead and
// not yet answering as one again. Probation is routing only — Allow, Open
// and Trips never see it.
func (h *Breakers) OnProbation() []int {
	var out []int
	for d, t := range h.disks {
		if t.standing.Load() != 0 {
			out = append(out, d)
		}
	}
	return out
}

// onProbation reports whether the endpoint is on probation: one atomic
// load.
func (t *diskTracker) onProbation() bool { return t != nil && t.standing.Load() != 0 }
