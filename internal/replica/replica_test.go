package replica

import (
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/query"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewChained(nil); err == nil {
		t.Error("nil base accepted")
	}
	g := grid.MustNew(8, 8)
	one, _ := alloc.NewDM(g, 1)
	if _, err := NewChained(one); err == nil {
		t.Error("single disk accepted")
	}
	dm, _ := alloc.NewDM(g, 4)
	if _, err := NewOffset(dm, 0); err == nil {
		t.Error("zero offset accepted")
	}
	if _, err := NewOffset(dm, 4); err == nil {
		t.Error("offset ≡ 0 (mod M) accepted")
	}
	r, err := NewOffset(dm, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Offset() != 3 {
		t.Errorf("offset -1 reduced to %d, want 3", r.Offset())
	}
}

func TestReplicasDistinct(t *testing.T) {
	g := grid.MustNew(8, 8)
	dm, _ := alloc.NewDM(g, 4)
	r, _ := NewChained(dm)
	if r.Name() != "DM+chain" || r.Disks() != 4 || r.Grid() != g {
		t.Error("accessors wrong")
	}
	if r.StorageOverhead() != 2.0 {
		t.Error("overhead wrong")
	}
	g.Each(func(c grid.Coord) bool {
		p, b := r.Replicas(c)
		if p == b {
			t.Fatalf("bucket %v replicas share disk %d", c, p)
		}
		if b != (p+1)%4 {
			t.Fatalf("bucket %v backup %d, want %d", c, b, (p+1)%4)
		}
		return true
	})
}

// bruteForce enumerates all replica assignments of a small query with
// the given disks failed (nil = none), returning the optimal makespan
// (len(buckets)+1 when no feasible assignment exists).
func bruteForce(r *Replicated, rect grid.Rect, failed []int) int {
	down := make(map[int]bool, len(failed))
	for _, d := range failed {
		down[d] = true
	}
	var buckets []grid.Coord
	grid.EachRect(rect, func(c grid.Coord) bool {
		buckets = append(buckets, c.Clone())
		return true
	})
	n := len(buckets)
	best := n + 1
	for mask := 0; mask < 1<<uint(n); mask++ {
		loads := make([]int, r.Disks())
		ok := true
		for i, c := range buckets {
			p, b := r.Replicas(c)
			d := p
			if mask>>uint(i)&1 == 1 {
				d = b
			}
			if down[d] {
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
		if max < best {
			best = max
		}
	}
	return best
}

// The exact scheduler must match brute force on every small query.
func TestResponseTimeMatchesBruteForce(t *testing.T) {
	g := grid.MustNew(6, 6)
	for _, base := range []string{"DM", "HCAM"} {
		m, err := alloc.Build(base, g, 4)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewChained(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, sides := range [][]int{{2, 2}, {3, 3}, {2, 5}, {1, 6}, {3, 4}} {
			_, err := g.Placements(sides, func(q grid.Rect) bool {
				got := r.ResponseTime(q)
				want := bruteForce(r, q, nil)
				if got != want {
					t.Fatalf("%s %v at %v: scheduler %d, brute force %d", base, sides, q, got, want)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDegradedMatchesBruteForce(t *testing.T) {
	g := grid.MustNew(6, 6)
	m, _ := alloc.Build("DM", g, 4)
	r, _ := NewChained(m)
	q := g.MustRect(grid.Coord{1, 1}, grid.Coord{3, 4})
	for failed := 0; failed < 4; failed++ {
		got, err := r.ResponseTimeDegraded(q, failed)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(r, q, []int{failed})
		if got != want {
			t.Fatalf("failed=%d: scheduler %d, brute force %d", failed, got, want)
		}
	}
	if _, err := r.ResponseTimeDegraded(q, 4); err == nil {
		t.Error("invalid failed disk accepted")
	}
	if _, err := r.ResponseTimeDegraded(q, -1); err == nil {
		t.Error("negative failed disk accepted")
	}
}

// Replication can only help: replicated RT ≤ base RT on every query.
func TestReplicationNeverHurts(t *testing.T) {
	g := grid.MustNew(16, 16)
	for _, name := range []string{"DM", "FX", "HCAM"} {
		m, err := alloc.Build(name, g, 8)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewChained(m)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := query.Placements(g, []int{3, 3}, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			baseRT := cost.ResponseTime(m, q)
			repRT := r.ResponseTime(q)
			if repRT > baseRT {
				t.Fatalf("%s on %v: replicated %d > base %d", name, q, repRT, baseRT)
			}
			if repRT < cost.OptimalRT(q.Volume(), 8) {
				t.Fatalf("%s on %v: replicated %d below the information bound", name, q, repRT)
			}
		}
	}
}

// Replication rescues DM's square-query weakness: on 2×2 squares over
// 4 disks, chained DM is exactly optimal although plain DM never is.
func TestChainedDMOptimalOnSquares(t *testing.T) {
	g := grid.MustNew(12, 12)
	dm, _ := alloc.NewDM(g, 4)
	r, _ := NewChained(dm)
	qs, err := query.Placements(g, []int{2, 2}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Evaluate("2×2", qs)
	if res.Ratio != 1 {
		t.Fatalf("chained DM ratio %.3f on 2×2 squares, want 1", res.Ratio)
	}
	plain := cost.Evaluate(dm, query.Workload{Name: "2×2", Queries: qs})
	if plain.Ratio != 2 {
		t.Fatalf("plain DM ratio %.3f, want 2 (sanity)", plain.Ratio)
	}
}

func TestEvaluateEmptyWorkload(t *testing.T) {
	g := grid.MustNew(8, 8)
	dm, _ := alloc.NewDM(g, 4)
	r, _ := NewChained(dm)
	res := r.Evaluate("empty", nil)
	if res.Queries != 0 || res.Ratio != 1 {
		t.Fatalf("empty workload result %+v", res)
	}
}

// The matcher's displacement chains (an occupant evicted to make room,
// which evicts another in turn) only arise on particular load patterns a
// fixed grid rarely produces, so fuzz the exact scheduler against
// exhaustive brute force over random bases, offsets, disk counts,
// failure sets, and query rectangles — and cross-check that
// DegradedAssignment realizes the reported makespan on admissible disks.
func TestSchedulerMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := grid.MustNew(8, 8)
	trials := 500
	if testing.Short() {
		trials = 60
	}
	names := []string{"DM", "FX", "HCAM"}
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(4)
		base, err := alloc.Build(names[rng.Intn(len(names))], g, m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewOffset(base, 1+rng.Intn(m-1))
		if err != nil {
			t.Fatal(err)
		}
		// Query of at most 12 buckets: brute force enumerates 2^n masks.
		s1, s2 := 1+rng.Intn(6), 1+rng.Intn(6)
		for s1*s2 > 12 {
			s1, s2 = 1+rng.Intn(6), 1+rng.Intn(6)
		}
		lo := grid.Coord{rng.Intn(9 - s1), rng.Intn(9 - s2)}
		q := g.MustRect(lo, grid.Coord{lo[0] + s1 - 1, lo[1] + s2 - 1})
		failed := rng.Perm(m)[:rng.Intn(m-1)]
		want := bruteForce(r, q, failed)

		got, err := r.ResponseTimeDegradedSet(q, failed)
		if err != nil {
			if !errors.Is(err, fault.ErrUnavailable) {
				t.Fatal(err)
			}
			if want <= q.Volume() {
				t.Fatalf("trial %d (%s, M=%d, off=%d, q=%v, failed=%v): scheduler unavailable, brute force %d",
					trial, base.Name(), m, r.Offset(), q, failed, want)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d (%s, M=%d, off=%d, q=%v, failed=%v): scheduler %d, brute force %d",
				trial, base.Name(), m, r.Offset(), q, failed, got, want)
		}

		assign, err := r.DegradedAssignment(q, failed)
		if err != nil {
			t.Fatal(err)
		}
		down := make(map[int]bool, len(failed))
		for _, d := range failed {
			down[d] = true
		}
		loads := make([]int, m)
		grid.EachRect(q, func(c grid.Coord) bool {
			b := g.Linearize(c)
			d, ok := assign[b]
			if !ok {
				t.Fatalf("trial %d: bucket %d unassigned", trial, b)
			}
			if d != r.PrimaryOf(b) && d != r.BackupOf(b) {
				t.Fatalf("trial %d: bucket %d assigned to non-replica disk %d", trial, b, d)
			}
			if down[d] {
				t.Fatalf("trial %d: bucket %d assigned to failed disk %d", trial, b, d)
			}
			loads[d]++
			return true
		})
		busiest := 0
		for _, l := range loads {
			if l > busiest {
				busiest = l
			}
		}
		if busiest != want {
			t.Fatalf("trial %d: assignment makespan %d, optimum %d", trial, busiest, want)
		}
	}
}

// Degraded-mode RT is bounded: losing one of M disks costs at most ~2×
// (the failed disk's load moves to its chain neighbour).
func TestDegradedBound(t *testing.T) {
	g := grid.MustNew(16, 16)
	hcam, _ := alloc.NewHCAM(g, 8)
	r, _ := NewChained(hcam)
	q := g.MustRect(grid.Coord{2, 2}, grid.Coord{9, 9})
	healthy := r.ResponseTime(q)
	for failed := 0; failed < 8; failed++ {
		deg, err := r.ResponseTimeDegraded(q, failed)
		if err != nil {
			t.Fatal(err)
		}
		if deg < healthy {
			t.Fatalf("degraded RT %d below healthy %d", deg, healthy)
		}
		if deg > 2*healthy+1 {
			t.Fatalf("degraded RT %d exceeds twice healthy %d", deg, healthy)
		}
	}
}

// Assign is checked on raw job sets, with one to three holders per job,
// three ways: its picks are admissible and realize the busiest load it
// reports; that load equals the exhaustive optimum; and it is the least
// capacity L under which every resource set U can hold the jobs that
// may use nothing outside U (at most L·|U| of them).
func TestAssignMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 4000
	if testing.Short() {
		trials = 400
	}
	holderCounts := make(map[int]bool)
	for trial := 0; trial < trials; trial++ {
		m := 1 + rng.Intn(6)
		jobs := make([][]int, rng.Intn(11))
		for j := range jobs {
			jobs[j] = rng.Perm(m)[:1+rng.Intn(min(3, m))]
			holderCounts[len(jobs[j])] = true
		}
		pick, busiest := Assign(jobs, m)
		load := make([]int, m)
		for j, d := range pick {
			if !slices.Contains(jobs[j], d) {
				t.Fatalf("trial %d: job %d (holders %v) placed on %d", trial, j, jobs[j], d)
			}
			load[d]++
		}
		if got := slices.Max(load); got != busiest {
			t.Fatalf("trial %d: picks load the busiest resource with %d, reported %d", trial, got, busiest)
		}
		if want := bruteAssign(jobs, load); busiest != want {
			t.Fatalf("trial %d (m=%d, jobs %v): Assign %d, brute force %d", trial, m, jobs, busiest, want)
		}
		if !covered(jobs, m, busiest) || busiest > 0 && covered(jobs, m, busiest-1) {
			t.Fatalf("trial %d (m=%d, jobs %v): %d is not the least covering capacity", trial, m, jobs, busiest)
		}
	}
	for _, r := range []int{1, 2, 3} {
		if !holderCounts[r] {
			t.Errorf("no job had %d holders", r)
		}
	}
}

// bruteAssign returns the least busiest load over every way of placing
// the jobs; load is scratch space of one entry per resource.
func bruteAssign(jobs [][]int, load []int) int {
	clear(load)
	var best func(j int) int
	best = func(j int) int {
		if j == len(jobs) {
			return slices.Max(load)
		}
		b := len(jobs) + 1
		for _, d := range jobs[j] {
			load[d]++
			b = min(b, best(j+1))
			load[d]--
		}
		return b
	}
	return best(0)
}

// covered reports whether capacity L per resource fits every set U of
// the m resources: the jobs whose holders all lie in U number at most
// L·|U|.
func covered(jobs [][]int, m, L int) bool {
	for u := 1; u < 1<<m; u++ {
		inside := 0
		for _, h := range jobs {
			if !slices.ContainsFunc(h, func(d int) bool { return u>>d&1 == 0 }) {
				inside++
			}
		}
		if inside > L*bits.OnesCount(uint(u)) {
			return false
		}
	}
	return true
}
