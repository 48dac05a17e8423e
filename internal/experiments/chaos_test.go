package experiments

import (
	"strings"
	"testing"
	"time"
)

// fastChaos keeps the soak short enough for the unit-test suite while
// still exercising the full chaos timeline (fail, recover, ramp).
func fastChaos() ChaosConfig {
	return ChaosConfig{
		GridSide:    8,
		Disks:       4,
		Records:     512,
		Clients:     6,
		Duration:    60 * time.Millisecond,
		BaseLatency: 50 * time.Microsecond,
		Offset:      2,
		Methods:     []string{"HCAM"},
	}
}

func TestChaosStructure(t *testing.T) {
	res, err := Chaos(fastChaos(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 5 {
		t.Fatalf("want 5 scheme cells for one method, got %d", len(res.Cells))
	}
	wantSchemes := []string{"none", "chain", "chain+hedge", "offset+2", "offset+2+hedge"}
	for i, c := range res.Cells {
		if c.Method != "HCAM" {
			t.Errorf("cell %d method = %q, want HCAM", i, c.Method)
		}
		if c.Scheme != wantSchemes[i] {
			t.Errorf("cell %d scheme = %q, want %q", i, c.Scheme, wantSchemes[i])
		}
		if c.Issued == 0 {
			t.Errorf("cell %d issued no queries", i)
		}
		if c.Completed == 0 {
			t.Errorf("cell %d completed no queries", i)
		}
		if got := c.Completed + c.Shed + c.Unavailable + c.Failed; got > c.Issued {
			t.Errorf("cell %d outcome counts %d exceed issued %d", i, got, c.Issued)
		}
		if c.P50 > c.P99 || c.P99 > c.P999 {
			t.Errorf("cell %d percentiles out of order: p50=%v p99=%v p999=%v",
				i, c.P50, c.P99, c.P999)
		}
		if c.Hedged != strings.HasSuffix(c.Scheme, "+hedge") {
			t.Errorf("cell %d hedged flag %v inconsistent with scheme %q", i, c.Hedged, c.Scheme)
		}
		if !c.Hedged && c.HedgesIssued != 0 {
			t.Errorf("cell %d issued %d hedges with hedging off", i, c.HedgesIssued)
		}
	}

	out := res.Table().String()
	for _, want := range []string{"EC", "HCAM", "offset+2+hedge", "p999"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	rep := res.HedgeReport()
	if !strings.Contains(rep, "hedging effect") || !strings.Contains(rep, "chain") {
		t.Errorf("hedge report incomplete:\n%s", rep)
	}
}

func TestChaosHedgingHedges(t *testing.T) {
	cfg := fastChaos()
	cfg.Duration = 100 * time.Millisecond
	res, err := Chaos(cfg, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var hedges uint64
	for _, c := range res.Cells {
		if c.Hedged {
			hedges += c.HedgesIssued
		}
	}
	if hedges == 0 {
		t.Error("no hedges issued across hedged schemes despite a straggler disk")
	}
}

func TestChaosValidation(t *testing.T) {
	cfg := fastChaos()
	cfg.Disks = 1
	if _, err := Chaos(cfg, Options{Seed: 1}); err == nil {
		t.Error("1-disk chaos accepted")
	}
	cfg = fastChaos()
	cfg.Methods = []string{"no-such-method"}
	if _, err := Chaos(cfg, Options{Seed: 1}); err == nil {
		t.Error("unknown method filter accepted")
	}
}
