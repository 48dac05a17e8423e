package experiments

import (
	"testing"
	"time"
)

// fastBatchGoodput keeps the soak short enough for the unit-test suite
// while still producing overlap for the dedup plan to collapse.
func fastBatchGoodput() BatchGoodputConfig {
	return BatchGoodputConfig{
		GridSide:    8,
		Disks:       4,
		Records:     512,
		Clients:     8,
		HotRects:    2,
		RectSide:    3,
		Duration:    80 * time.Millisecond,
		BaseLatency: 2 * time.Millisecond,
		Window:      3 * time.Millisecond,
		MaxInFlight: 2,
		Aggregates:  200,
	}
}

func TestBatchGoodputStructure(t *testing.T) {
	res, err := BatchGoodput(fastBatchGoodput(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []string{"individual", "batched"}
	if len(res.Cells) != len(wantModes) {
		t.Fatalf("want %d cells, got %d", len(wantModes), len(res.Cells))
	}
	for i, c := range res.Cells {
		if c.Mode != wantModes[i] {
			t.Errorf("cell %d mode = %q, want %q", i, c.Mode, wantModes[i])
		}
		if c.Issued == 0 || c.Answered == 0 {
			t.Errorf("%s: issued %d / answered %d, want both > 0", c.Mode, c.Issued, c.Answered)
		}
		if c.Answered+c.Failed > c.Issued {
			t.Errorf("%s: answered %d + failed %d exceed issued %d", c.Mode, c.Answered, c.Failed, c.Issued)
		}
		if c.Demand != c.Physical+c.Deduped+c.Pruned {
			t.Errorf("%s: Demand %d != Physical %d + Deduped %d + Pruned %d",
				c.Mode, c.Demand, c.Physical, c.Deduped, c.Pruned)
		}
		if c.P50 > c.P99 {
			t.Errorf("%s: p50 %v > p99 %v", c.Mode, c.P50, c.P99)
		}
	}
	if ind := res.Cells[0]; ind.Physical != ind.Demand || ind.Deduped != 0 {
		t.Errorf("individual cell must read every demanded bucket: %+v", ind)
	}
	for _, c := range res.Cells[1:] {
		if c.Deduped == 0 {
			t.Errorf("%s: overlapping hot pool produced zero dedup savings", c.Mode)
		}
		if c.Physical >= c.Demand {
			t.Errorf("%s: physical %d not below demand %d", c.Mode, c.Physical, c.Demand)
		}
	}

	if res.AggQueries == 0 || res.AggReads != 0 {
		t.Errorf("aggregate drill: %d queries, %d reads; want >0 queries and 0 reads",
			res.AggQueries, res.AggReads)
	}
	if res.Table() == nil {
		t.Fatal("nil table")
	}
	if res.AggregateReport() == "" {
		t.Fatal("empty aggregate report")
	}
}
