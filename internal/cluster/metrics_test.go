package cluster

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/grid"
	"decluster/internal/obs"
)

// TestSharedSinkGrowsNodeFamilies boots two harnesses on one sink in the
// EN order — a 4-node cell, then a 4-node cell with one standby — so the
// second needs five-wide per-node families where the first registered
// four. Both must boot, the dump must list all five members, and a
// handle resolved before the growth must keep counting into its member.
func TestSharedSinkGrowsNodeFamilies(t *testing.T) {
	g := grid.MustNew(8, 8)
	m, err := alloc.NewFX(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewChainShardMap(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := datagen.Uniform{K: 2, Seed: 42}.Generate(300)
	sink := obs.NewSink()
	start := func(standbys int) *Harness {
		t.Helper()
		h, err := StartHarness(HarnessConfig{Map: sm, Method: m, Records: recs, Standbys: standbys, Obs: sink})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		return h
	}
	search := func(h *Harness) {
		t.Helper()
		res, err := h.Router().Search(context.Background(), g.FullRect())
		if err != nil || len(res.Records) != len(recs) {
			t.Fatalf("full-grid search: %v", err)
		}
	}

	first := start(0)
	search(first)
	reqs := sink.Registry().CounterFamily("cluster.node.requests", "node", 0)
	early := reqs.At(3)
	before := early.Value()
	if reqs.Len() != 4 || before == 0 {
		t.Fatalf("first cell: %d request members, node3 = %d; want 4, > 0", reqs.Len(), before)
	}

	second := start(1)
	if reqs.Len() != 5 {
		t.Fatalf("after the standby cell booted: %d request members, want 5", reqs.Len())
	}
	search(second)
	search(first)
	if reqs.At(3) != early || early.Value() <= before {
		t.Errorf("node3 handle resolved before the growth: same member %v, %d → %d",
			reqs.At(3) == early, before, early.Value())
	}

	var buf bytes.Buffer
	if err := sink.Registry().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.node.queue.depth", "cluster.node.requests"} {
		var line string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, name+" ") {
				line = l
			}
		}
		for _, member := range []string{"node0=", "node1=", "node2=", "node3=", "node4="} {
			if !strings.Contains(line, member) {
				t.Errorf("%s dump line lacks %s: %q", name, member, line)
			}
		}
	}
}
