package experiments

import (
	"strings"
	"testing"
)

func TestAvailabilityDefaults(t *testing.T) {
	cfg := AvailabilityConfig{}.withDefaults()
	if cfg.GridSide != 32 || cfg.Disks != 8 || cfg.MaxFailed != 2 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	clamped := AvailabilityConfig{Disks: 4, MaxFailed: 9}.withDefaults()
	if clamped.MaxFailed != 3 {
		t.Errorf("MaxFailed not clamped to Disks-1: %d", clamped.MaxFailed)
	}
	// Negative values are the explicit-zero sentinel (the zero value
	// selects the default, so a plain 0 cannot express "none").
	if neg := (AvailabilityConfig{MaxFailed: -3}).withDefaults(); neg.MaxFailed != 0 {
		t.Errorf("negative MaxFailed not treated as explicit 0: %d", neg.MaxFailed)
	}
	if neg := (AvailabilityConfig{TransientProb: -1}).withDefaults(); neg.TransientProb != 0 {
		t.Errorf("negative TransientProb not treated as explicit 0: %v", neg.TransientProb)
	}
	if cfg.TransientProb != 0.3 {
		t.Errorf("TransientProb default wrong: %v", cfg.TransientProb)
	}
}

func TestAvailabilityExperiment(t *testing.T) {
	opt := Options{Seed: 1, SampleLimit: 25}
	res, err := Availability(AvailabilityConfig{GridSide: 16, Disks: 8, MaxFailed: 2, FailTrials: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedCounts) != 3 {
		t.Fatalf("failure counts %v, want [0 1 2]", res.FailedCounts)
	}
	if res.Offset != 4 {
		t.Errorf("offset %d, want Disks/2 = 4", res.Offset)
	}
	// Every paper method contributes three scheme rows.
	if len(res.Rows)%3 != 0 || len(res.Rows) == 0 {
		t.Fatalf("%d rows, want a multiple of 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Cells) != 3 {
			t.Fatalf("row %s/%s has %d cells", row.Method, row.Scheme, len(row.Cells))
		}
		healthy := row.Cells[0]
		if healthy.Unavailable != 0 {
			t.Errorf("%s/%s unavailable with zero failures", row.Method, row.Scheme)
		}
		if healthy.Ratio < 1 {
			t.Errorf("%s/%s healthy ratio %.3f below 1", row.Method, row.Scheme, healthy.Ratio)
		}
		switch row.Scheme {
		case "none":
			// A failed disk makes most 4×4 queries touch it: plenty of
			// unavailability without replication.
			if row.Cells[1].Unavailable == 0 {
				t.Errorf("%s/none reports full availability with a failed disk", row.Method)
			}
		default:
			// Replication answers every single-failure trial.
			if row.Cells[1].Unavailable != 0 {
				t.Errorf("%s/%s unavailable under a single failure", row.Method, row.Scheme)
			}
			if row.Cells[1].Ratio < healthy.Ratio {
				t.Errorf("%s/%s degraded ratio %.3f below healthy %.3f",
					row.Method, row.Scheme, row.Cells[1].Ratio, healthy.Ratio)
			}
		}
	}

	d := res.Drill
	if !d.Verified {
		t.Error("drill records did not match the fault-free run")
	}
	if d.Retries == 0 {
		t.Error("drill recorded no transient retries at p=0.3")
	}
	if d.Rerouted == 0 {
		t.Error("drill rerouted no buckets despite a failed disk")
	}
	if d.DegradedLoad > 2*d.HealthyLoad {
		t.Errorf("drill degraded load %d exceeds 2× healthy %d", d.DegradedLoad, d.HealthyLoad)
	}
	if !strings.Contains(d.UnreplicatedErr, "unavailable") {
		t.Errorf("unreplicated run error %q not an unavailability", d.UnreplicatedErr)
	}

	tbl := res.Table().String()
	for _, want := range []string{"EA", "chain", "offset+4", "0 failed", "2 failed"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	rep := res.DrillReport()
	for _, want := range []string{"fault drill", "retried", "failed over", "without replication"} {
		if !strings.Contains(rep, want) {
			t.Errorf("drill report missing %q:\n%s", want, rep)
		}
	}
}

// Determinism: identical seeds reproduce the whole result.
func TestAvailabilityDeterministic(t *testing.T) {
	opt := Options{Seed: 3, SampleLimit: 10}
	cfg := AvailabilityConfig{GridSide: 16, Disks: 4, MaxFailed: 1, FailTrials: 2}
	a, err := Availability(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Availability(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table().String() != b.Table().String() {
		t.Error("availability table not deterministic under a fixed seed")
	}
	if a.Drill.Retries != b.Drill.Retries || a.Drill.Rerouted != b.Drill.Rerouted {
		t.Error("drill not deterministic under a fixed seed")
	}
}
