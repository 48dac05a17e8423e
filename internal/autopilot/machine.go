// Package autopilot closes the metrics→plan→migrate loop: a controller
// that watches the cluster's live backpressure (per-node p99 latency,
// admission-queue depth, shed rate, breaker states) over sliding
// windows and decides when to grow the shard map onto a standby node
// or drain one back out, executing each decision with the same
// cluster.PlanJoin/PlanLeave + Migrate machinery an operator would
// drive by hand.
//
// Robustness is the design center, so the decision core is a small
// explicit state machine
//
//	steady → scale-up-pending → migrating → cool-down → steady
//	       ↘ scale-down-pending ↗
//
// with three defenses against making an incident worse:
//
//   - Hysteresis: a scale condition must hold for a configured number
//     of consecutive ticks before any action; one blip resets the
//     streak.
//   - Safety fuses: even a fully-qualified decision is vetoed while
//     any node breaker is open, a partition is suspected (epoch
//     disagreement or unreachable members), a migration is already in
//     flight, the node envelope would be violated, or no standby
//     answers for the planned member. Fuses hold the pending state —
//     they never reset the streak — so a clean bill of health acts
//     immediately.
//   - Cool-down: after every migration (success or abort) the machine
//     freezes, so migration-induced latency can never trigger the next
//     action, and an aborted migration is never hot-retried.
//
// A thrash counter records direction reversals executed within the
// thrash window — the flapping metric the blinking-partition chaos
// cell asserts stays at zero.
package autopilot

import (
	"fmt"
	"math"
	"time"
)

// State is the controller state machine's position.
type State int

const (
	// Steady: load is inside the deadband; nothing pending.
	Steady State = iota
	// ScaleUpPending: overload observed; hysteresis streak building.
	ScaleUpPending
	// ScaleDownPending: sustained idle observed; streak building.
	ScaleDownPending
	// Migrating: a join or leave is executing.
	Migrating
	// CoolDown: post-migration freeze until the cool-down expires.
	CoolDown
)

// String names the state for logs and dumps.
func (s State) String() string {
	switch s {
	case Steady:
		return "steady"
	case ScaleUpPending:
		return "scale-up-pending"
	case ScaleDownPending:
		return "scale-down-pending"
	case Migrating:
		return "migrating"
	case CoolDown:
		return "cool-down"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Fuse identifies the safety check that vetoed a ready decision.
type Fuse int

const (
	// FuseNone: no veto.
	FuseNone Fuse = iota
	// FuseBreakersOpen: a node breaker is open — the cluster is
	// routing around a sick node; changing the map now compounds it.
	FuseBreakersOpen
	// FusePartitionSuspected: members disagree on the map epoch or
	// did not answer a health probe.
	FusePartitionSuspected
	// FuseMigrationInFlight: some migration (ours or external) is
	// already moving buckets.
	FuseMigrationInFlight
	// FuseEnvelope: the action would leave the hard min/max node
	// bounds.
	FuseEnvelope
	// FuseNoStandby: a join is due but no idle standby answered for
	// the planned member ID.
	FuseNoStandby
	numFuses int = iota - 1 // counter-family size; FuseNone excluded
)

// String names the fuse for logs and dumps.
func (f Fuse) String() string {
	switch f {
	case FuseNone:
		return "none"
	case FuseBreakersOpen:
		return "breakers-open"
	case FusePartitionSuspected:
		return "partition-suspected"
	case FuseMigrationInFlight:
		return "migration-in-flight"
	case FuseEnvelope:
		return "envelope"
	case FuseNoStandby:
		return "no-standby"
	}
	return fmt.Sprintf("fuse(%d)", int(f))
}

// Action is what a Step decided to do.
type Action int

const (
	// ActNone: keep watching.
	ActNone Action = iota
	// ActJoin: grow the map onto the planned standby.
	ActJoin
	// ActLeave: drain the highest member out of the map.
	ActLeave
)

// Signals is one tick's windowed view of cluster health — everything
// the machine is allowed to know. The controller assembles it from
// /v1/health probes (each node's latency histogram, queue, sheds, epochs,
// standby state) and the router's breakers; tests assemble it by hand.
type Signals struct {
	// P99 is the worst per-node p99 latency over the sliding window.
	P99 time.Duration
	// QueueDepth is the deepest admission queue across serving nodes.
	QueueDepth int
	// ShedRate is cluster-wide sheds per second over the window.
	ShedRate float64
	// BreakersOpen counts node breakers currently open at the router.
	BreakersOpen int
	// EpochSplit reports serving members disagreeing on the map epoch.
	EpochSplit bool
	// Unreachable counts current-map members whose health probe failed.
	Unreachable int
	// MigrationInFlight reports staged pending epochs on any member —
	// an externally driven migration the controller must not race.
	MigrationInFlight bool
	// Nodes is the current map's node count.
	Nodes int
	// StandbyReady reports an idle standby answering health probes
	// under the member ID the next join plan would assign.
	StandbyReady bool
}

// Policy is the decision configuration: thresholds, hysteresis depths,
// cool-down, envelope.
type Policy struct {
	// ScaleUpP99, ScaleUpQueue, ScaleUpShedRate classify a tick as
	// overloaded when any is exceeded; a zero threshold disables that
	// trigger.
	ScaleUpP99      time.Duration
	ScaleUpQueue    int
	ScaleUpShedRate float64
	// ScaleDownP99 classifies a tick as idle when p99 is at or below
	// it AND the queue is empty AND nothing is being shed. Zero
	// disables scale-down entirely.
	ScaleDownP99 time.Duration
	// HysteresisUp / HysteresisDown are the consecutive qualifying
	// ticks required before acting (defaults 3 / 6).
	HysteresisUp, HysteresisDown int
	// CoolDown freezes the machine after every migration, success or
	// abort (default 500ms).
	CoolDown time.Duration
	// ThrashWindow: a migration reversing the previous one's direction
	// within this window counts as thrash (default 4×CoolDown).
	ThrashWindow time.Duration
	// MinNodes / MaxNodes bound the map size the controller may reach
	// (defaults 1 / unbounded).
	MinNodes, MaxNodes int
}

func (p Policy) withDefaults() Policy {
	if p.HysteresisUp <= 0 {
		p.HysteresisUp = 3
	}
	if p.HysteresisDown <= 0 {
		p.HysteresisDown = 2 * p.HysteresisUp
	}
	if p.CoolDown <= 0 {
		p.CoolDown = 500 * time.Millisecond
	}
	if p.ThrashWindow <= 0 {
		p.ThrashWindow = 4 * p.CoolDown
	}
	if p.MinNodes <= 0 {
		p.MinNodes = 1
	}
	if p.MaxNodes <= 0 {
		p.MaxNodes = math.MaxInt
	}
	return p
}

// overloaded classifies one tick against the scale-up thresholds.
func (p Policy) overloaded(sig Signals) bool {
	return (p.ScaleUpP99 > 0 && sig.P99 >= p.ScaleUpP99) ||
		(p.ScaleUpQueue > 0 && sig.QueueDepth >= p.ScaleUpQueue) ||
		(p.ScaleUpShedRate > 0 && sig.ShedRate >= p.ScaleUpShedRate)
}

// idle classifies one tick against the scale-down threshold: every
// load signal quiet at once.
func (p Policy) idle(sig Signals) bool {
	return p.ScaleDownP99 > 0 && sig.P99 <= p.ScaleDownP99 &&
		sig.QueueDepth == 0 && sig.ShedRate == 0
}

// Decision is one Step's outcome.
type Decision struct {
	// Action is what to execute now (almost always ActNone).
	Action Action
	// State is the machine's position after the step.
	State State
	// Veto names the fuse that held a ready action (FuseNone if none).
	Veto Fuse
	// Reason is a human-readable account for the decision log; empty
	// for uneventful ticks.
	Reason string
	// Streak is the current hysteresis streak (0 outside pending).
	Streak int
}

// Machine is the pure decision core: no clocks, no I/O — callers feed
// it (now, Signals) ticks and execute what it returns, reporting back
// via MigrationDone. Not safe for concurrent use; the controller owns
// it from a single loop.
type Machine struct {
	p         Policy
	state     State
	streak    int
	coolUntil time.Time
	lastDir   Action
	lastExec  time.Time
	thrash    uint64
}

// NewMachine builds a machine in Steady with defaults applied.
func NewMachine(p Policy) *Machine {
	return &Machine{p: p.withDefaults()}
}

// State returns the machine's position.
func (m *Machine) State() State { return m.state }

// Thrash returns the count of executed direction reversals inside the
// thrash window — zero on a well-behaved controller.
func (m *Machine) Thrash() uint64 { return m.thrash }

// Policy returns the effective (defaulted) policy.
func (m *Machine) Policy() Policy { return m.p }

// Step advances the machine one tick. When it returns ActJoin or
// ActLeave the machine has entered Migrating and the caller must
// execute the action and call MigrationDone.
func (m *Machine) Step(now time.Time, sig Signals) Decision {
	switch m.state {
	case Migrating:
		// The controller is executing; ticks are informational only.
		return Decision{State: Migrating}
	case CoolDown:
		if now.Before(m.coolUntil) {
			return Decision{State: CoolDown}
		}
		m.state, m.streak = Steady, 0
	}

	over, idle := m.p.overloaded(sig), m.p.idle(sig)
	switch m.state {
	case Steady:
		switch {
		case over:
			m.state, m.streak = ScaleUpPending, 1
			return m.pendingDecision("overload observed")
		case idle:
			m.state, m.streak = ScaleDownPending, 1
			return m.pendingDecision("idle observed")
		}
		return Decision{State: Steady}
	case ScaleUpPending:
		if !over {
			m.state, m.streak = Steady, 0
			return Decision{State: Steady, Reason: "load normalized; scale-up cancelled"}
		}
		m.streak++
		if m.streak < m.p.HysteresisUp {
			return m.pendingDecision("")
		}
		if f := m.fuse(sig, ActJoin); f != FuseNone {
			return Decision{State: m.state, Veto: f, Streak: m.streak,
				Reason: fmt.Sprintf("scale-up ready but vetoed: %s", f)}
		}
		return m.execute(now, ActJoin, sig)
	case ScaleDownPending:
		if !idle {
			m.state, m.streak = Steady, 0
			return Decision{State: Steady, Reason: "load returned; scale-down cancelled"}
		}
		m.streak++
		if m.streak < m.p.HysteresisDown {
			return m.pendingDecision("")
		}
		if f := m.fuse(sig, ActLeave); f != FuseNone {
			return Decision{State: m.state, Veto: f, Streak: m.streak,
				Reason: fmt.Sprintf("scale-down ready but vetoed: %s", f)}
		}
		return m.execute(now, ActLeave, sig)
	}
	return Decision{State: m.state}
}

func (m *Machine) pendingDecision(reason string) Decision {
	return Decision{State: m.state, Streak: m.streak, Reason: reason}
}

// fuse runs the safety checks a qualified action must clear, most
// dangerous first.
func (m *Machine) fuse(sig Signals, act Action) Fuse {
	switch {
	case sig.BreakersOpen > 0:
		return FuseBreakersOpen
	case sig.EpochSplit || sig.Unreachable > 0:
		return FusePartitionSuspected
	case sig.MigrationInFlight:
		return FuseMigrationInFlight
	}
	switch act {
	case ActJoin:
		if sig.Nodes >= m.p.MaxNodes {
			return FuseEnvelope
		}
		if !sig.StandbyReady {
			return FuseNoStandby
		}
	case ActLeave:
		if sig.Nodes <= m.p.MinNodes {
			return FuseEnvelope
		}
	}
	return FuseNone
}

// execute commits the action: Migrating entered, thrash accounted.
func (m *Machine) execute(now time.Time, act Action, sig Signals) Decision {
	if m.lastDir != ActNone && m.lastDir != act && now.Sub(m.lastExec) < m.p.ThrashWindow {
		m.thrash++
	}
	streak := m.streak
	m.state, m.streak = Migrating, 0
	m.lastDir, m.lastExec = act, now
	verb := "join"
	if act == ActLeave {
		verb = "leave"
	}
	return Decision{Action: act, State: Migrating, Streak: streak,
		Reason: fmt.Sprintf("%s after %d qualifying ticks (p99=%v queue=%d shed=%.1f/s)",
			verb, streak, sig.P99, sig.QueueDepth, sig.ShedRate)}
}

// MigrationDone reports the executed action's outcome and starts the
// cool-down. An aborted migration rolled back to the From epoch
// (Migrate guarantees that before the first cutover ack) and cools
// down for twice as long, so a failing change is never hot-retried
// against whatever made it fail.
func (m *Machine) MigrationDone(now time.Time, aborted bool) {
	m.state = CoolDown
	cool := m.p.CoolDown
	if aborted {
		cool *= 2
	}
	m.coolUntil = now.Add(cool)
}
