package batch

import (
	"reflect"
	"testing"
)

func TestBuildPlanDedup(t *testing.T) {
	// Three members with overlap: bucket 4 shared by all, 7 by two,
	// repeats inside member 2 folded.
	queries := [][]int{
		{4, 7, 1},
		{4, 2},
		{7, 4, 7, 9},
	}
	p := BuildPlan(queries)
	if want := []int{4, 7, 1, 2, 9}; !reflect.DeepEqual(p.Buckets, want) {
		t.Fatalf("Buckets = %v, want first-demand order %v", p.Buckets, want)
	}
	// Member 2 demands 3 distinct buckets (7 folded to one).
	if p.Demand != 3+2+3 {
		t.Fatalf("Demand = %d, want 8", p.Demand)
	}
	if p.Saved() != 8-5 {
		t.Fatalf("Saved = %d, want 3", p.Saved())
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(p.Covers[4], want) {
		t.Fatalf("Covers[4] = %v, want %v", p.Covers[4], want)
	}
	if want := []int{0, 2}; !reflect.DeepEqual(p.Covers[7], want) {
		t.Fatalf("Covers[7] = %v, want %v", p.Covers[7], want)
	}
}

// FuzzBatchDedup checks the plan invariants on arbitrary overlapping
// demand sets: every query's buckets are covered exactly once per query,
// no read is orphaned (covered by nobody), and the accounting ties out.
func FuzzBatchDedup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2})
	f.Add([]byte{1, 5, 5, 5, 5, 5})
	f.Add([]byte{4, 0, 1, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode: first byte = member count (1..8); remaining bytes are
		// bucket demands dealt round-robin to members, mod a small
		// bucket space so overlap is common.
		const buckets = 16
		members := 1
		if len(data) > 0 {
			members = 1 + int(data[0])%8
			data = data[1:]
		}
		queries := make([][]int, members)
		for i, by := range data {
			qi := i % members
			queries[qi] = append(queries[qi], int(by)%buckets)
		}

		p := BuildPlan(queries)

		// Distinct buckets: no duplicates, every one covered.
		seen := make(map[int]bool, len(p.Buckets))
		for _, b := range p.Buckets {
			if seen[b] {
				t.Fatalf("bucket %d listed twice in %v", b, p.Buckets)
			}
			seen[b] = true
			if len(p.Covers[b]) == 0 {
				t.Fatalf("orphan read: bucket %d has no coverers", b)
			}
		}
		if len(p.Covers) != len(p.Buckets) {
			t.Fatalf("%d cover entries for %d distinct buckets", len(p.Covers), len(p.Buckets))
		}

		// Exactly-once cover: each member appears in Covers[b] exactly
		// once per distinct bucket it demands, and never otherwise.
		demand := 0
		for qi, bs := range queries {
			distinct := make(map[int]bool, len(bs))
			for _, b := range bs {
				distinct[b] = true
			}
			demand += len(distinct)
			for b := range distinct {
				n := 0
				for _, c := range p.Covers[b] {
					if c == qi {
						n++
					}
				}
				if n != 1 {
					t.Fatalf("member %d covers bucket %d %d times, want exactly once", qi, b, n)
				}
			}
		}
		for b, covers := range p.Covers {
			for _, qi := range covers {
				found := false
				for _, d := range queries[qi] {
					if d == b {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("member %d listed for bucket %d it never demanded", qi, b)
				}
			}
		}

		// Accounting: Demand is the sum of per-member distinct demand,
		// equivalently the sum of cover list lengths; Saved ≥ 0.
		if p.Demand != demand {
			t.Fatalf("Demand = %d, want %d", p.Demand, demand)
		}
		covered := 0
		for _, c := range p.Covers {
			covered += len(c)
		}
		if covered != p.Demand {
			t.Fatalf("Σ covers = %d, Demand = %d", covered, p.Demand)
		}
		if p.Saved() < 0 {
			t.Fatalf("negative savings %d", p.Saved())
		}
	})
}
