package fault

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestNodeInjectorStates(t *testing.T) {
	in := NewNodeInjector()
	if got := in.NodeStatus(0); got != NodeHealthy {
		t.Fatalf("fresh node state = %v, want healthy", got)
	}
	in.Crash(2)
	if got := in.NodeStatus(2); got != NodeCrashed {
		t.Fatalf("after Crash state = %v", got)
	}
	in.Partition(3)
	if got := in.NodeStatus(3); got != NodePartitioned {
		t.Fatalf("after Partition state = %v", got)
	}
	// Crashed dominates partitioned.
	in.Partition(2)
	if got := in.NodeStatus(2); got != NodeCrashed {
		t.Fatalf("crashed+partitioned state = %v, want crashed", got)
	}
	in.Restart(2)
	if got := in.NodeStatus(2); got != NodePartitioned {
		t.Fatalf("restarted-but-partitioned state = %v, want partitioned", got)
	}
	in.Heal(2)
	in.Heal(3)
	if got := in.NodeStatus(3); got != NodeHealthy {
		t.Fatalf("after Heal state = %v", got)
	}

	if err := in.SetNodeSlow(1, 0.5); err == nil {
		t.Fatal("SetNodeSlow accepted factor < 1")
	}
	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		if err := in.SetNodeSlow(1, f); err == nil {
			t.Fatalf("SetNodeSlow accepted factor %v", f)
		}
	}
	if err := in.SetNodeSlow(1, 4); err != nil {
		t.Fatal(err)
	}
	if got := in.NodeSlowFactor(1); got != 4 {
		t.Fatalf("slow factor = %v, want 4", got)
	}
	if err := in.SetNodeSlow(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := in.NodeSlowFactor(1); got != 1 {
		t.Fatalf("cleared slow factor = %v, want 1", got)
	}
}

// Schedules must be pure functions of their seed: the whole point is
// that a printed seed replays the exact same fault script.
func TestNodeSchedulesDeterministic(t *testing.T) {
	builders := map[string]func(seed int64) NodeSchedule{
		"node-loss":       func(s int64) NodeSchedule { return NodeLossSchedule(s, 5, time.Second) },
		"rolling-restart": func(s int64) NodeSchedule { return RollingRestartSchedule(s, 5, time.Second) },
		"partition":       func(s int64) NodeSchedule { return PartitionSchedule(s, 5, time.Second) },
		"slow-node":       func(s int64) NodeSchedule { return SlowNodeSchedule(s, 5, time.Second, 8) },
	}
	for name, build := range builders {
		a, b := build(7), build(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different schedules", name)
		}
		c := build(8)
		if name != "rolling-restart" && reflect.DeepEqual(a.Events, c.Events) {
			// Different seeds should usually move the victim; with 5 nodes
			// a collision is possible for any single pair, so check a few.
			same := true
			for s := int64(9); s < 20; s++ {
				if !reflect.DeepEqual(a.Events, build(s).Events) {
					same = false
					break
				}
			}
			if same {
				t.Errorf("%s: schedule ignores its seed", name)
			}
		}
	}
}

func TestRollingRestartCoversEveryNodeOnce(t *testing.T) {
	const nodes = 6
	s := RollingRestartSchedule(3, nodes, time.Second)
	if len(s.Events) != 2*nodes {
		t.Fatalf("events = %d, want %d", len(s.Events), 2*nodes)
	}
	crashed := map[int]int{}
	restarted := map[int]int{}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].At {
			t.Fatalf("events not time-ordered at %d", i)
		}
	}
	for _, e := range s.Events {
		switch e.Kind {
		case EventCrash:
			crashed[e.Node]++
		case EventRestart:
			restarted[e.Node]++
		}
	}
	for n := 0; n < nodes; n++ {
		if crashed[n] != 1 || restarted[n] != 1 {
			t.Fatalf("node %d crashed %d restarted %d times", n, crashed[n], restarted[n])
		}
	}
}

func TestScheduleRunAppliesEvents(t *testing.T) {
	in := NewNodeInjector()
	s := NodeSchedule{
		Seed: 1, Nodes: 3, Name: "test",
		Events: []NodeEvent{
			{At: 0, Kind: EventCrash, Node: 1},
			{At: time.Millisecond, Kind: EventRestart, Node: 1},
			{At: 2 * time.Millisecond, Kind: EventSlow, Node: 0, Factor: 3},
		},
	}
	var seen []NodeEventKind
	for _, e := range s.Events {
		if err := in.Apply(e); err != nil {
			t.Fatal(err)
		}
		seen = append(seen, e.Kind)
	}
	if len(seen) != 3 {
		t.Fatalf("applied %d events, want 3", len(seen))
	}
	if in.NodeStatus(1) != NodeHealthy {
		t.Fatalf("node 1 state = %v after crash+restart", in.NodeStatus(1))
	}
	if in.NodeSlowFactor(0) != 3 {
		t.Fatalf("node 0 slow factor = %v", in.NodeSlowFactor(0))
	}
}
