package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseGrid(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"8x8", []int{8, 8}, true},
		{" 4x4x4 ", []int{4, 4, 4}, true},
		{"32", []int{32}, true},
		{"8X8", []int{8, 8}, true},
		{"8x", nil, false},
		{"0x8", nil, false},
		{"8x-2", nil, false},
		{"axb", nil, false},
	}
	for _, c := range cases {
		got, err := parseGrid(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseGrid(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseGrid(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseRect(t *testing.T) {
	sm, _, err := buildGeometry("8x8", 4, 1, "chain", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := sm.Grid()
	r, err := parseRect("1,2:5,6", g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lo[0] != 1 || r.Lo[1] != 2 || r.Hi[0] != 5 || r.Hi[1] != 6 {
		t.Errorf("parseRect = %v", r)
	}
	for _, bad := range []string{"1,2", "1:2", "1,2:5", "1,2,3:4,5,6", "9,9:9,9", "5,5:1,1", "a,b:c,d"} {
		if _, err := parseRect(bad, g); err == nil {
			t.Errorf("parseRect(%q) accepted", bad)
		}
	}
}

func TestBuildGeometry(t *testing.T) {
	sm, method, err := buildGeometry("8x8", 4, 2, "offset", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Stride() != 2 {
		t.Errorf("offset default stride = %d, want nodes/2 = 2", sm.Stride())
	}
	if method.Grid().Buckets() != 64 {
		t.Errorf("method buckets = %d", method.Grid().Buckets())
	}
	if _, _, err := buildGeometry("8x8", 4, 2, "ring", 0, 4); err == nil {
		t.Error("unknown placement accepted")
	}
	if _, _, err := buildGeometry("2x2", 8, 1, "chain", 0, 4); err == nil {
		t.Error("more nodes than buckets accepted")
	}
}

// TestServeAndQuery boots a real 3-node cluster on loopback through the
// binary's own startNode path and runs client queries against it —
// healthy, then with one node stopped (replicated, so still exact).
func TestServeAndQuery(t *testing.T) {
	const (
		nodes   = 3
		records = 600
		seed    = int64(1)
	)
	sm, method, err := buildGeometry("8x8", nodes, 2, "chain", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*nodeServer, nodes)
	urls := make([]string, nodes)
	for i := range servers {
		s, err := startNode("127.0.0.1:0", i, sm, method, records, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		servers[i] = s
		urls[i] = "http://" + s.Addr()
	}
	peers := strings.Join(urls, ",")

	var out strings.Builder
	if err := runQuery(&out, "0,0:7,7", peers, sm, time.Second, 0, 10*time.Second); err != nil {
		t.Fatalf("healthy query: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "600 records") {
		t.Errorf("full-grid query should return all %d records:\n%s", records, out.String())
	}
	if !strings.Contains(out.String(), "3/3 sub-queries") {
		t.Errorf("full-grid query should cover 3 shards:\n%s", out.String())
	}

	// Stop node 1; with 2 replicas per shard the router must still
	// answer exactly via the surviving copies.
	if err := servers[1].Shutdown(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runQuery(&out, "0,0:7,7", peers, sm, 500*time.Millisecond, 0, 10*time.Second); err != nil {
		t.Fatalf("degraded query: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "600 records") {
		t.Errorf("degraded query lost records:\n%s", out.String())
	}
	if strings.Contains(out.String(), "PARTIAL") {
		t.Errorf("degraded query went partial despite replication:\n%s", out.String())
	}

	// Mismatched peer count is rejected up front.
	if err := runQuery(&out, "0,0:7,7", urls[0], sm, time.Second, 0, time.Second); err == nil {
		t.Error("peer/node count mismatch accepted")
	}
}

// TestMigrateJoinAndStaleQuery drives the binary's whole elastic story:
// boot a 3-node cluster plus one standby, run -migrate join against it,
// then query it with a router still built from the 3-node boot geometry
// — the stale router must adopt the new epoch mid-query (via the nodes'
// stale-epoch replies) and still return every record.
func TestMigrateJoinAndStaleQuery(t *testing.T) {
	const (
		nodes   = 3
		records = 600
		seed    = int64(1)
	)
	sm, method, err := buildGeometry("8x8", nodes, 2, "chain", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < nodes+1; i++ {
		id := i
		if i == nodes {
			id = sm.MaxMember() + 1 // the standby, as -standby computes it
		}
		s, err := startNode("127.0.0.1:0", id, sm, method, records, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		urls = append(urls, "http://"+s.Addr())
	}
	peers := strings.Join(urls, ",")

	var out strings.Builder
	if err := runMigrate(&out, "join", peers, sm, -1, 0, 30*time.Second); err != nil {
		t.Fatalf("migrate join: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "migrated to epoch 2") {
		t.Errorf("join did not reach epoch 2:\n%s", out.String())
	}

	// The query-side router is built from the boot geometry — epoch 1 —
	// and must follow the cluster to epoch 2 without being told.
	out.Reset()
	if err := runQuery(&out, "0,0:7,7", peers, sm, time.Second, 0, 10*time.Second); err != nil {
		t.Fatalf("stale query after join: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "600 records") {
		t.Errorf("stale query lost records after join:\n%s", out.String())
	}

	// Bad mode and unknown victim are rejected up front.
	if err := runMigrate(&out, "shuffle", peers, sm, -1, 0, time.Second); err == nil {
		t.Error("unknown -migrate mode accepted")
	}
	if err := runMigrate(&out, "leave", peers, sm, 99, 0, time.Second); err == nil {
		t.Error("leave of unknown member accepted")
	}
	if err := runMigrate(&out, "join", peers, sm, -1, math.NaN(), time.Second); err == nil {
		t.Error("NaN -migrate-rate accepted")
	}
}
