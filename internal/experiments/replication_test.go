package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReplicationImprovesEveryMethod(t *testing.T) {
	cfg := ReplicationConfig{GridSide: 32, Disks: 8}
	res, err := Replication(cfg, Options{Seed: 1, SampleLimit: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ReplicatedRatio > row.BaseRatio+1e-9 {
			t.Errorf("%s: replication worsened ratio %.3f → %.3f",
				row.Method, row.BaseRatio, row.ReplicatedRatio)
		}
		if row.ReplicatedRatio < 1 {
			t.Errorf("%s: impossible replicated ratio %.3f", row.Method, row.ReplicatedRatio)
		}
		if row.DegradedRatio < row.ReplicatedRatio {
			t.Errorf("%s: degraded %.3f below healthy %.3f", row.Method, row.DegradedRatio, row.ReplicatedRatio)
		}
		if row.DegradedRatio > 2*row.BaseRatio+1 {
			t.Errorf("%s: degraded ratio %.3f blew past the chained bound", row.Method, row.DegradedRatio)
		}
	}
}

// Chained DM must become exactly optimal on 2×2 squares (the scheduling
// headroom of primary vs chain-neighbour covers the diagonal collision).
func TestReplicationRescuesDMSquares(t *testing.T) {
	cfg := ReplicationConfig{GridSide: 32, Disks: 8, QuerySides: []int{2, 2}}
	res, err := Replication(cfg, Options{Seed: 1, SampleLimit: 80})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Method != "DM" {
			continue
		}
		if row.BaseRatio != 2 {
			t.Fatalf("plain DM ratio %.3f on 2×2, want 2", row.BaseRatio)
		}
		if row.ReplicatedRatio != 1 {
			t.Fatalf("chained DM ratio %.3f on 2×2, want exactly 1", row.ReplicatedRatio)
		}
	}
}

func TestReplicationTableRendering(t *testing.T) {
	cfg := ReplicationConfig{GridSide: 16, Disks: 4}
	res, err := Replication(cfg, Options{Seed: 1, SampleLimit: 20})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table().String()
	for _, want := range []string{"E14", "single copy", "replicated"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// The replica solver's optimum fixes every E14 and EA figure, whichever
// optimal assignment it picks, so both tables are pinned for two seeds.
// The availability drill is left out: its retry count follows the
// chosen assignment, since transient faults are keyed by disk and
// bucket.
func TestReplicaTablesGolden(t *testing.T) {
	var out strings.Builder
	for _, seed := range []int64{1, 7} {
		rep, err := Replication(ReplicationConfig{GridSide: 32, Disks: 8}, Options{Seed: seed, SampleLimit: 60})
		if err != nil {
			t.Fatal(err)
		}
		avail, err := Availability(AvailabilityConfig{GridSide: 16, Disks: 8, MaxFailed: 3, FailTrials: 3}, Options{Seed: seed, SampleLimit: 40})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "seed %d\n%s\n%s\n", seed, rep.Table(), avail.Table())
	}
	got := out.String()
	path := filepath.Join("testdata", "replica_tables.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("replica tables changed (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}
