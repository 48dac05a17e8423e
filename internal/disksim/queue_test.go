package disksim

import (
	"testing"
	"time"

	"decluster/internal/gridfile"
)

func sampleTraces() []gridfile.Trace {
	// Two traces over 2 disks: one balanced, one lopsided.
	return []gridfile.Trace{
		{PerDisk: [][]gridfile.Access{
			{{Bucket: 0, Pages: 1}},
			{{Bucket: 1, Pages: 1}},
		}},
		{PerDisk: [][]gridfile.Access{
			{{Bucket: 2, Pages: 3}},
			nil,
		}},
	}
}

func TestSimulateOpenValidation(t *testing.T) {
	s, _ := New(testModel())
	if _, err := s.SimulateOpen(nil, 1, 10, 1); err == nil {
		t.Error("empty traces accepted")
	}
	if _, err := s.SimulateOpen(sampleTraces(), 0, 10, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := s.SimulateOpen(sampleTraces(), 1, 0, 1); err == nil {
		t.Error("zero queries accepted")
	}
	empty := []gridfile.Trace{{}}
	if _, err := s.SimulateOpen(empty, 1, 10, 1); err == nil {
		t.Error("diskless traces accepted")
	}
}

func TestSimulateOpenLightLoad(t *testing.T) {
	s, _ := New(testModel())
	// Very light load: responses ≈ standalone service times, no queueing.
	res, err := s.SimulateOpen(sampleTraces(), 0.1, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 200 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Standalone responses: balanced trace 16ms, lopsided 18ms.
	if res.MeanResponse < 15*time.Millisecond || res.MeanResponse > 19*time.Millisecond {
		t.Fatalf("light-load mean response %v; want ≈16–18ms", res.MeanResponse)
	}
	if res.Utilization > 0.05 {
		t.Fatalf("light-load utilization %v; want ≈0", res.Utilization)
	}
	if res.P95Response < res.MeanResponse/2 {
		t.Fatalf("p95 %v below half the mean %v", res.P95Response, res.MeanResponse)
	}
}

func TestSimulateOpenHeavyLoadQueues(t *testing.T) {
	s, _ := New(testModel())
	light, err := s.SimulateOpen(sampleTraces(), 0.1, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Offered work per query ≈ 17ms; at 100 qps the system saturates.
	heavy, err := s.SimulateOpen(sampleTraces(), 100, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.MeanResponse <= 2*light.MeanResponse {
		t.Fatalf("heavy load mean %v not clearly above light %v", heavy.MeanResponse, light.MeanResponse)
	}
	if heavy.Utilization < 0.5 {
		t.Fatalf("heavy load utilization %v; want high", heavy.Utilization)
	}
	if heavy.Utilization > 1.0+1e-9 {
		t.Fatalf("utilization %v exceeds 1", heavy.Utilization)
	}
}

func TestSimulateOpenDeterministic(t *testing.T) {
	s, _ := New(testModel())
	a, _ := s.SimulateOpen(sampleTraces(), 5, 100, 42)
	b, _ := s.SimulateOpen(sampleTraces(), 5, 100, 42)
	if a != b {
		t.Fatal("same seed produced different results")
	}
	c, _ := s.SimulateOpen(sampleTraces(), 5, 100, 43)
	if a == c {
		t.Fatal("different seeds produced identical results")
	}
}
