package replica

import (
	"errors"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/fault"
	"decluster/internal/grid"
)

// Satellite coverage: with disk d failed, every bucket whose primary is
// d must resolve to its backup, and the min-makespan schedule must
// never place a read on a failed disk.
func TestDegradedAssignmentAvoidsFailedDisk(t *testing.T) {
	g := grid.MustNew(12, 12)
	for _, base := range []string{"DM", "FX", "HCAM"} {
		m, err := alloc.Build(base, g, 6)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewChained(m)
		if err != nil {
			t.Fatal(err)
		}
		q := g.MustRect(grid.Coord{1, 2}, grid.Coord{8, 9})
		for failed := 0; failed < 6; failed++ {
			assign, err := r.DegradedAssignment(q, []int{failed})
			if err != nil {
				t.Fatalf("%s failed=%d: %v", base, failed, err)
			}
			if len(assign) != q.Volume() {
				t.Fatalf("%s failed=%d: assigned %d of %d buckets", base, failed, len(assign), q.Volume())
			}
			grid.EachRect(q, func(c grid.Coord) bool {
				b := g.Linearize(c)
				d, ok := assign[b]
				if !ok {
					t.Fatalf("%s failed=%d: bucket %d unassigned", base, failed, b)
				}
				if d == failed {
					t.Fatalf("%s: bucket %d scheduled on failed disk %d", base, b, failed)
				}
				if d != r.PrimaryOf(b) && d != r.BackupOf(b) {
					t.Fatalf("%s: bucket %d on disk %d, which holds no replica", base, b, d)
				}
				if r.PrimaryOf(b) == failed && d != r.BackupOf(b) {
					t.Fatalf("%s: bucket %d primary on failed disk %d not rerouted to backup %d",
						base, b, failed, r.BackupOf(b))
				}
				if r.BackupOf(b) == failed && d != r.PrimaryOf(b) {
					t.Fatalf("%s: bucket %d backup on failed disk %d not pinned to primary %d",
						base, b, failed, r.PrimaryOf(b))
				}
				return true
			})
		}
	}
}

// The assignment's busiest disk must equal the exact degraded response
// time — the schedule realizes the makespan the scheduler reports.
func TestDegradedAssignmentRealizesMakespan(t *testing.T) {
	g := grid.MustNew(10, 10)
	m, _ := alloc.Build("HCAM", g, 5)
	r, _ := NewChained(m)
	q := g.MustRect(grid.Coord{0, 0}, grid.Coord{6, 7})
	for failed := 0; failed < 5; failed++ {
		assign, err := r.DegradedAssignment(q, []int{failed})
		if err != nil {
			t.Fatal(err)
		}
		loads := make([]int, 5)
		for _, d := range assign {
			loads[d]++
		}
		busiest := 0
		for _, l := range loads {
			if l > busiest {
				busiest = l
			}
		}
		want, err := r.ResponseTimeDegraded(q, failed)
		if err != nil {
			t.Fatal(err)
		}
		if busiest != want {
			t.Fatalf("failed=%d: assignment busiest %d, scheduler %d", failed, busiest, want)
		}
	}
}

func TestDegradedMultiFailure(t *testing.T) {
	g := grid.MustNew(8, 8)
	m, _ := alloc.Build("DM", g, 8)
	r, _ := NewChained(m) // backup = primary+1 mod 8
	q := g.FullRect()

	// Non-adjacent failures survive under chaining.
	rt, err := r.ResponseTimeDegradedSet(q, []int{0, 4})
	if err != nil {
		t.Fatalf("non-adjacent double failure: %v", err)
	}
	healthy := r.ResponseTime(q)
	if rt < healthy {
		t.Fatalf("degraded RT %d below healthy %d", rt, healthy)
	}

	// Adjacent failures 0,1 lose every bucket with primary 0 (backup 1):
	// typed unavailability, not wrong results.
	_, err = r.ResponseTimeDegradedSet(q, []int{0, 1})
	if !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("adjacent double failure: got %v, want ErrUnavailable", err)
	}
	var ue *fault.UnavailableError
	if !errors.As(err, &ue) || len(ue.Buckets) == 0 {
		t.Fatal("UnavailableError carries no bucket list")
	}
	for _, b := range ue.Buckets {
		if r.PrimaryOf(b) != 0 || r.BackupOf(b) != 1 {
			t.Fatalf("bucket %d reported lost but has replicas on %d/%d",
				b, r.PrimaryOf(b), r.BackupOf(b))
		}
	}
	if _, err := r.DegradedAssignment(q, []int{0, 1}); !errors.Is(err, fault.ErrUnavailable) {
		t.Fatal("DegradedAssignment did not surface unavailability")
	}
}

func TestDegradedValidation(t *testing.T) {
	g := grid.MustNew(6, 6)
	m, _ := alloc.Build("DM", g, 4)
	r, _ := NewChained(m)
	q := g.FullRect()
	if _, err := r.ResponseTimeDegradedSet(q, []int{4}); err == nil {
		t.Error("out-of-range disk accepted")
	}
	if _, err := r.ResponseTimeDegradedSet(q, []int{-1}); err == nil {
		t.Error("negative disk accepted")
	}
	if _, err := r.ResponseTimeDegradedSet(q, []int{0, 1, 2, 3}); err == nil {
		t.Error("all-disks-failed accepted")
	}
	// Duplicates collapse; a duplicated single failure is fine.
	rt, err := r.ResponseTimeDegradedSet(q, []int{2, 2})
	if err != nil {
		t.Fatalf("duplicate failed disk rejected: %v", err)
	}
	want, _ := r.ResponseTimeDegraded(q, 2)
	if rt != want {
		t.Fatalf("deduped RT %d != single-failure RT %d", rt, want)
	}
	// Empty failed set = healthy optimum.
	rt, err = r.ResponseTimeDegradedSet(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt != r.ResponseTime(q) {
		t.Fatalf("empty failed set RT %d != healthy %d", rt, r.ResponseTime(q))
	}
}

// Multi-failure scheduling still matches brute force on small queries.
func TestDegradedSetMatchesBruteForce(t *testing.T) {
	g := grid.MustNew(6, 6)
	m, _ := alloc.Build("HCAM", g, 5)
	r, _ := NewChained(m)
	q := g.MustRect(grid.Coord{1, 1}, grid.Coord{3, 4})
	for f1 := 0; f1 < 5; f1++ {
		for f2 := f1 + 1; f2 < 5; f2++ {
			got, err := r.ResponseTimeDegradedSet(q, []int{f1, f2})
			want := bruteForceSet(r, q, map[int]bool{f1: true, f2: true})
			if want < 0 {
				if !errors.Is(err, fault.ErrUnavailable) {
					t.Fatalf("failed={%d,%d}: brute force unavailable, scheduler %v", f1, f2, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("failed={%d,%d}: %v", f1, f2, err)
			}
			if got != want {
				t.Fatalf("failed={%d,%d}: scheduler %d, brute force %d", f1, f2, got, want)
			}
		}
	}
}

// bruteForceSet enumerates all replica assignments, returning -1 when
// some bucket lost both replicas.
func bruteForceSet(r *Replicated, rect grid.Rect, failed map[int]bool) int {
	var buckets []grid.Coord
	grid.EachRect(rect, func(c grid.Coord) bool {
		buckets = append(buckets, c.Clone())
		return true
	})
	n := len(buckets)
	best := -1
	for mask := 0; mask < 1<<uint(n); mask++ {
		loads := make([]int, r.Disks())
		ok := true
		for i, c := range buckets {
			p, b := r.Replicas(c)
			d := p
			if mask>>uint(i)&1 == 1 {
				d = b
			}
			if failed[d] {
				ok = false
				break
			}
			loads[d]++
		}
		if !ok {
			continue
		}
		max := 0
		for _, l := range loads {
			if l > max {
				max = l
			}
		}
		if best == -1 || max < best {
			best = max
		}
	}
	return best
}

// BenchmarkDegradedAssignment prices one solve over a whole 64×64 HCAM
// grid on 16 disks: healthy, and with one disk failed, whose 256
// buckets all land on their backups and must be spread back out.
func BenchmarkDegradedAssignment(b *testing.B) {
	g := grid.MustNew(64, 64)
	hcam, err := alloc.NewHCAM(g, 16)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewChained(hcam)
	if err != nil {
		b.Fatal(err)
	}
	buckets := g.AppendRect(nil, g.FullRect())
	for _, bc := range []struct {
		name   string
		failed []int
	}{{"healthy", nil}, {"one-failed", []int{3}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.DegradedAssignmentBuckets(buckets, bc.failed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
