package fault

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Node-level fault classes. Where the disk-level injector models what a
// parallel I/O subsystem fears (fail-stop disks, transient reads,
// stragglers), the node injector models what a *cluster* fears:
//
//   - node crash: the node's process is gone; every connection to it
//     dies at the transport layer (no well-formed error response);
//   - network partition: the node is alive but unreachable; requests
//     neither fail nor succeed until the caller's deadline fires;
//   - slow node: the node serves, but every request takes a latency
//     multiple — the cluster-scale straggler;
//   - rolling restart: each node in turn crashes and comes back, the
//     shape of a routine deploy.
//
// The injector holds only state; the HTTP serving layer (package
// cluster) consults it per request and acts out the class. Schedules —
// when which node fails — are pure functions of a seed, so any chaos
// run can be replayed exactly by quoting the seed it printed.

// NodeState classifies a node's current fault status.
type NodeState int

const (
	// NodeHealthy: the node serves normally.
	NodeHealthy NodeState = iota
	// NodeCrashed: connections to the node die at the transport layer.
	NodeCrashed
	// NodePartitioned: requests to the node hang until the caller's
	// deadline fires.
	NodePartitioned
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case NodeHealthy:
		return "healthy"
	case NodeCrashed:
		return "crashed"
	case NodePartitioned:
		return "partitioned"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// NodeInjector injects node-level faults. It is safe for concurrent use
// by a cluster's request handlers while a chaos driver flips state, with
// the same locking contract as Injector: every mutation takes the write
// lock, every observation the read lock, so each call sees a consistent
// state.
type NodeInjector struct {
	mu          sync.RWMutex
	crashed     map[int]bool
	partitioned map[int]bool
	slow        map[int]float64
}

// NewNodeInjector returns an injector with every node healthy.
func NewNodeInjector() *NodeInjector {
	return &NodeInjector{
		crashed:     make(map[int]bool),
		partitioned: make(map[int]bool),
		slow:        make(map[int]float64),
	}
}

// Crash marks node n crashed.
func (in *NodeInjector) Crash(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashed[n] = true
}

// Restart clears node n's crashed state — the node's process is back.
func (in *NodeInjector) Restart(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.crashed, n)
}

// Partition marks node n unreachable: requests to it hang until the
// caller gives up.
func (in *NodeInjector) Partition(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.partitioned[n] = true
}

// Heal clears node n's partitioned state.
func (in *NodeInjector) Heal(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.partitioned, n)
}

// SetNodeSlow marks node n a straggler with the given finite latency
// multiplier (≥ 1); 1 clears it.
func (in *NodeInjector) SetNodeSlow(n int, f float64) error {
	if !(f >= 1 && f < math.Inf(1)) { // refuses NaN too
		return fmt.Errorf("fault: node straggler multiplier %v not a finite factor ≥ 1", f)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if f == 1 {
		delete(in.slow, n)
	} else {
		in.slow[n] = f
	}
	return nil
}

// NodeStatus returns node n's current fault state. A node both crashed
// and partitioned reports crashed (the stronger class).
func (in *NodeInjector) NodeStatus(n int) NodeState {
	in.mu.RLock()
	defer in.mu.RUnlock()
	switch {
	case in.crashed[n]:
		return NodeCrashed
	case in.partitioned[n]:
		return NodePartitioned
	default:
		return NodeHealthy
	}
}

// NodeSlowFactor returns node n's latency multiplier (1 when the node
// is not a straggler).
func (in *NodeInjector) NodeSlowFactor(n int) float64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if f, ok := in.slow[n]; ok {
		return f
	}
	return 1
}

// CrashedNodes returns the crashed nodes, ascending.
func (in *NodeInjector) CrashedNodes() []int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]int, 0, len(in.crashed))
	for n := range in.crashed {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// NodeEventKind is one schedule action.
type NodeEventKind int

const (
	// EventCrash crashes the event's node.
	EventCrash NodeEventKind = iota
	// EventRestart restarts the event's node.
	EventRestart
	// EventPartition partitions the event's node.
	EventPartition
	// EventHeal heals the event's node.
	EventHeal
	// EventSlow marks the event's node a straggler at Factor.
	EventSlow
	// EventFast clears the event's node's straggler state.
	EventFast
)

// String names the kind.
func (k NodeEventKind) String() string {
	switch k {
	case EventCrash:
		return "crash"
	case EventRestart:
		return "restart"
	case EventPartition:
		return "partition"
	case EventHeal:
		return "heal"
	case EventSlow:
		return "slow"
	case EventFast:
		return "fast"
	default:
		return fmt.Sprintf("NodeEventKind(%d)", int(k))
	}
}

// NodeEvent is one timed fault transition of a schedule.
type NodeEvent struct {
	// At is the event time relative to schedule start.
	At time.Duration
	// Kind is the transition; Node its target.
	Kind NodeEventKind
	Node int
	// Factor is the straggler multiplier of an EventSlow.
	Factor float64
}

// NodeSchedule is a deterministic node-fault script: every event time
// and victim is a pure function of (Seed, Nodes, the builder that made
// it), so a chaos run is replayed exactly by re-deriving the schedule
// from the seed it printed.
type NodeSchedule struct {
	// Seed derived the schedule; quoted in String for replay.
	Seed int64
	// Nodes is the cluster size the schedule was built for.
	Nodes int
	// Name identifies the builder ("node-loss", "rolling-restart", …).
	Name string
	// Events are the transitions, ascending by At.
	Events []NodeEvent
}

// String describes the schedule with its replay seed.
func (s NodeSchedule) String() string {
	return fmt.Sprintf("%s schedule over %d nodes (%d events; replay with -seed %d)",
		s.Name, s.Nodes, len(s.Events), s.Seed)
}

// Pick returns a deterministic victim node for the i-th draw of a
// seed: the splitmix64-based choice every schedule builder uses, so
// callers composing their own chaos (e.g. "partition the node a
// schedule would pick") land on the same victim for the same seed.
func Pick(seed int64, i, nodes int) int {
	return int(splitmix64(uint64(seed)^0x5bd1e995*uint64(i+1)) % uint64(nodes))
}

// NodeLossSchedule scripts the cluster's core robustness drill: one
// seed-chosen node crashes at ¼ of the run and restarts at ¾. Between
// those marks the cluster serves with a node down.
func NodeLossSchedule(seed int64, nodes int, duration time.Duration) NodeSchedule {
	victim := Pick(seed, 0, nodes)
	return NodeSchedule{
		Seed: seed, Nodes: nodes, Name: "node-loss",
		Events: []NodeEvent{
			{At: duration / 4, Kind: EventCrash, Node: victim},
			{At: 3 * duration / 4, Kind: EventRestart, Node: victim},
		},
	}
}

// RollingRestartSchedule scripts a deploy: every node, in a seeded
// order, crashes and restarts in turn. The restart windows tile the
// middle half of the run, so at most one node is down at a time and the
// cluster is fully healthy for the first and last quarters.
func RollingRestartSchedule(seed int64, nodes int, duration time.Duration) NodeSchedule {
	order := make([]int, nodes)
	for i := range order {
		order[i] = i
	}
	// Seeded Fisher–Yates: the restart order is part of the replay.
	for i := nodes - 1; i > 0; i-- {
		j := int(splitmix64(uint64(seed)^0x9e3779b9*uint64(i)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	s := NodeSchedule{Seed: seed, Nodes: nodes, Name: "rolling-restart"}
	window := duration / 2 / time.Duration(nodes)
	start := duration / 4
	for i, n := range order {
		at := start + time.Duration(i)*window
		s.Events = append(s.Events,
			NodeEvent{At: at, Kind: EventCrash, Node: n},
			// Restart at ¾ of the window: the node is back and has ¼ of a
			// window to re-prove health before the next victim goes down.
			NodeEvent{At: at + 3*window/4, Kind: EventRestart, Node: n},
		)
	}
	return s
}

// PartitionSchedule scripts a network partition: one seed-chosen node
// becomes unreachable (requests hang) for the middle half of the run.
func PartitionSchedule(seed int64, nodes int, duration time.Duration) NodeSchedule {
	victim := Pick(seed, 0, nodes)
	return NodeSchedule{
		Seed: seed, Nodes: nodes, Name: "partition",
		Events: []NodeEvent{
			{At: duration / 4, Kind: EventPartition, Node: victim},
			{At: 3 * duration / 4, Kind: EventHeal, Node: victim},
		},
	}
}

// BlinkingPartitionSchedule scripts the adversarial input for any
// membership controller: one seed-chosen node partitions and heals
// blinks times, the blink windows tiling the middle half of the run.
// Each blink looks exactly like the onset of sustained overload — p99
// spikes, breakers trip — and then vanishes; a controller that reacts
// to it thrashes the shard map for nothing. The autopilot's hysteresis
// and fuses are asserted to hold zero migrations against this.
func BlinkingPartitionSchedule(seed int64, nodes int, duration time.Duration, blinks int) NodeSchedule {
	if blinks < 1 {
		blinks = 1
	}
	victim := Pick(seed, 0, nodes)
	s := NodeSchedule{Seed: seed, Nodes: nodes, Name: "blinking-partition"}
	window := duration / 2 / time.Duration(blinks)
	start := duration / 4
	for i := 0; i < blinks; i++ {
		at := start + time.Duration(i)*window
		s.Events = append(s.Events,
			NodeEvent{At: at, Kind: EventPartition, Node: victim},
			// Heal at ½ of the window: the gap is long enough for
			// breaker half-open probes, short enough that acting on the
			// "recovery" would be exactly the flapping we must not do.
			NodeEvent{At: at + window/2, Kind: EventHeal, Node: victim},
		)
	}
	return s
}

// SlowNodeSchedule scripts a cluster-scale straggler: one seed-chosen
// node serves at factor × latency for the middle half of the run.
func SlowNodeSchedule(seed int64, nodes int, duration time.Duration, factor float64) NodeSchedule {
	victim := Pick(seed, 0, nodes)
	return NodeSchedule{
		Seed: seed, Nodes: nodes, Name: "slow-node",
		Events: []NodeEvent{
			{At: duration / 4, Kind: EventSlow, Node: victim, Factor: factor},
			{At: 3 * duration / 4, Kind: EventFast, Node: victim},
		},
	}
}

// Apply performs one event against the injector.
func (in *NodeInjector) Apply(e NodeEvent) error {
	switch e.Kind {
	case EventCrash:
		in.Crash(e.Node)
	case EventRestart:
		in.Restart(e.Node)
	case EventPartition:
		in.Partition(e.Node)
	case EventHeal:
		in.Heal(e.Node)
	case EventSlow:
		return in.SetNodeSlow(e.Node, e.Factor)
	case EventFast:
		return in.SetNodeSlow(e.Node, 1)
	default:
		return fmt.Errorf("fault: unknown node event kind %v", e.Kind)
	}
	return nil
}
