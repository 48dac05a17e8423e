// Package replica implements replicated declustering — the extension
// the reproduced paper flags as open ("while assigning a data block to
// multiple disks … has been considered at the disk block level, for
// reliability purposes, no corresponding data replication approaches
// have been proposed for data declustering"). Every bucket is stored on
// a primary and a backup disk (chained declustering, Hsiao & DeWitt
// 1990: backup = primary + 1 mod M, or a configurable offset), and a
// query may read each bucket from either replica. The response time is
// then a scheduling problem — assign each bucket to one of its two
// disks minimizing the busiest disk — which this package solves
// *exactly* by binary-searching the makespan and checking feasibility
// with a max-flow (bipartite b-matching) argument.
package replica

import (
	"fmt"
	"sort"

	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/fault"
	"decluster/internal/grid"
)

// job is one bucket read with its two admissible disks.
type job struct{ a, b int }

// Replicated is a two-copy declustering: per bucket, a primary and a
// backup disk.
type Replicated struct {
	base    alloc.Method
	g       *grid.Grid
	m       int
	offset  int
	primary []int
	backup  []int
}

// NewChained builds the chained replication of a base method: backup =
// (primary + 1) mod M. It requires at least two disks.
func NewChained(base alloc.Method) (*Replicated, error) {
	return NewOffset(base, 1)
}

// NewOffset builds a replication with backup = (primary + offset) mod
// M. The offset must not be ≡ 0 (mod M), or the two copies would share
// a disk.
func NewOffset(base alloc.Method, offset int) (*Replicated, error) {
	if base == nil {
		return nil, fmt.Errorf("replica: nil base method")
	}
	m := base.Disks()
	if m < 2 {
		return nil, fmt.Errorf("replica: need ≥ 2 disks, got %d", m)
	}
	off := ((offset % m) + m) % m
	if off == 0 {
		return nil, fmt.Errorf("replica: offset %d ≡ 0 (mod %d); replicas would share a disk", offset, m)
	}
	g := base.Grid()
	primary := alloc.Table(base)
	backup := make([]int, len(primary))
	for b, d := range primary {
		backup[b] = (d + off) % m
	}
	return &Replicated{base: base, g: g, m: m, offset: off, primary: primary, backup: backup}, nil
}

// Name identifies the replicated scheme.
func (r *Replicated) Name() string { return r.base.Name() + "+chain" }

// Grid returns the underlying grid.
func (r *Replicated) Grid() *grid.Grid { return r.g }

// Disks returns the disk count.
func (r *Replicated) Disks() int { return r.m }

// Offset returns the backup offset.
func (r *Replicated) Offset() int { return r.offset }

// Replicas returns the primary and backup disk of the bucket at c.
func (r *Replicated) Replicas(c grid.Coord) (primary, backup int) {
	b := r.g.Linearize(c)
	return r.primary[b], r.backup[b]
}

// PrimaryOf returns the primary disk of the row-major bucket b.
func (r *Replicated) PrimaryOf(b int) int { return r.primary[b] }

// BackupOf returns the backup disk of the row-major bucket b.
func (r *Replicated) BackupOf(b int) int { return r.backup[b] }

// StorageOverhead returns the replication factor (2.0 — every bucket
// stored twice). Provided for symmetry with cost reporting.
func (r *Replicated) StorageOverhead() float64 { return 2.0 }

// ResponseTime returns the exact optimal response time of the query
// under free replica choice: the minimum over all bucket→replica
// assignments of the busiest disk's bucket count.
func (r *Replicated) ResponseTime(rect grid.Rect) int {
	rt, _ := r.responseTime(rect, nil)
	return rt
}

// ResponseTimeDegraded returns the exact optimal response time with one
// disk failed: buckets whose surviving replica is unique are pinned to
// it, the rest scheduled freely. It returns an error when failed is not
// a valid disk.
func (r *Replicated) ResponseTimeDegraded(rect grid.Rect, failed int) (int, error) {
	return r.ResponseTimeDegradedSet(rect, []int{failed})
}

// ResponseTimeDegradedSet returns the exact optimal response time with
// a set of disks failed simultaneously. It returns a
// *fault.UnavailableError when some bucket of the query lost both of
// its replicas, and a plain error when the failed set itself is
// invalid (out-of-range disk, or every disk failed).
func (r *Replicated) ResponseTimeDegradedSet(rect grid.Rect, failed []int) (int, error) {
	fs, err := r.failedSet(failed)
	if err != nil {
		return 0, err
	}
	return r.responseTime(rect, fs)
}

// DegradedAssignment solves the min-makespan replica assignment of the
// query's buckets with the given disks failed and returns the chosen
// disk per row-major bucket number. Every bucket whose primary disk
// failed resolves to its backup (and vice versa); buckets with both
// replicas alive are placed to minimize the busiest disk. No bucket is
// ever assigned to a failed disk. Errors are those of
// ResponseTimeDegradedSet; a nil or empty failed set yields the
// healthy optimal assignment. A rectangle is the common special case of
// a bucket set, so this is DegradedAssignmentBuckets over its buckets.
func (r *Replicated) DegradedAssignment(rect grid.Rect, failed []int) (map[int]int, error) {
	return r.DegradedAssignmentBuckets(r.g.AppendRect(nil, rect), failed)
}

// DegradedAssignmentBuckets is the one degraded assignment: it takes an
// explicit bucket-number set — a rectangle's buckets, or the shape a
// batch engine's deduped read plan has after shared buckets are folded
// across queries. Buckets may arrive in any order and may repeat; the
// returned map has one entry per distinct bucket.
func (r *Replicated) DegradedAssignmentBuckets(buckets []int, failed []int) (map[int]int, error) {
	fs, err := r.failedSet(failed)
	if err != nil {
		return nil, err
	}
	jobs, ids, err := r.gather(buckets, fs)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, len(jobs))
	if len(jobs) == 0 {
		return out, nil
	}
	q, err := r.makespan(jobs, len(fs))
	if err != nil {
		return nil, err
	}
	byDisk, ok := r.assign(jobs, q)
	if !ok {
		// makespan returned a feasible quota by construction.
		panic(fmt.Sprintf("replica: optimal makespan %d infeasible", q))
	}
	for d, occupants := range byDisk {
		for _, j := range occupants {
			out[ids[j]] = d
		}
	}
	return out, nil
}

// failedSet validates and dedups a failed-disk list.
func (r *Replicated) failedSet(failed []int) (map[int]bool, error) {
	fs := make(map[int]bool, len(failed))
	for _, d := range failed {
		if d < 0 || d >= r.m {
			return nil, fmt.Errorf("replica: failed disk %d outside [0,%d)", d, r.m)
		}
		fs[d] = true
	}
	if len(fs) >= r.m {
		return nil, fmt.Errorf("replica: all %d disks failed", r.m)
	}
	return fs, nil
}

// gather collects each listed bucket's admissible disks under the failed
// set, plus the bucket ids in visit order. Repeated buckets contribute
// one job (the physical read happens once). Buckets that lost both
// replicas make the set unavailable.
func (r *Replicated) gather(buckets []int, failed map[int]bool) ([]job, []int, error) {
	jobs := make([]job, 0, len(buckets))
	ids := make([]int, 0, len(buckets))
	var lost []int
	seen := make([]bool, len(r.primary))
	for _, idx := range buckets {
		if idx < 0 || idx >= len(r.primary) {
			return nil, nil, fmt.Errorf("replica: bucket %d outside [0,%d)", idx, len(r.primary))
		}
		if seen[idx] {
			continue
		}
		seen[idx] = true
		a, b := r.primary[idx], r.backup[idx]
		aOK, bOK := !failed[a], !failed[b]
		switch {
		case !aOK && !bOK:
			lost = append(lost, idx)
			continue
		case !aOK:
			a = b
		case !bOK:
			b = a
		}
		jobs = append(jobs, job{a, b})
		ids = append(ids, idx)
	}
	if len(lost) > 0 {
		sort.Ints(lost)
		fd := make([]int, 0, len(failed))
		for d := range failed {
			fd = append(fd, d)
		}
		sort.Ints(fd)
		return nil, nil, &fault.UnavailableError{Buckets: lost, FailedDisks: fd}
	}
	return jobs, ids, nil
}

// responseTime solves the min-makespan replica assignment for the
// query's buckets, excluding the failed disks (nil = none).
func (r *Replicated) responseTime(rect grid.Rect, failed map[int]bool) (int, error) {
	jobs, _, err := r.gather(r.g.AppendRect(nil, rect), failed)
	if err != nil {
		return 0, err
	}
	if len(jobs) == 0 {
		return 0, nil
	}
	return r.makespan(jobs, len(failed))
}

// makespan binary-searches the optimal busiest-disk quota for the jobs,
// with numFailed disks out of service. Feasibility by max-flow: source
// → job (cap 1) → its disks → sink (cap L). With unit job capacities
// this is bipartite b-matching; a simple augmenting-path matcher with
// per-disk quotas suffices.
func (r *Replicated) makespan(jobs []job, numFailed int) (int, error) {
	n := len(jobs)
	live := r.m - numFailed
	if live < 1 {
		return 0, fmt.Errorf("replica: no live disks")
	}
	lo, hi := cost.OptimalRT(n, live), n
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := r.assign(jobs, mid); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// assign attempts to place every job on one of its two disks with no
// disk exceeding quota q, returning the per-disk occupant lists and
// whether the placement succeeded. Augmenting-path b-matching: jobs are
// matched one at a time; a job may displace another job from a full
// disk if that job can move to its alternative disk (chains of
// displacement are explored depth-first).
func (r *Replicated) assign(jobs []job, q int) ([][]int, bool) {
	loads := make([]int, r.m)
	// byDisk tracks which jobs sit on each disk for displacement.
	byDisk := make([][]int, r.m)
	var place func(j int, visited []bool) bool
	place = func(j int, visited []bool) bool {
		for _, d := range []int{jobs[j].a, jobs[j].b} {
			if visited[d] {
				continue
			}
			if loads[d] < q {
				loads[d]++
				byDisk[d] = append(byDisk[d], j)
				return true
			}
		}
		// Both disks full: try displacing an occupant to its other disk.
		for _, d := range []int{jobs[j].a, jobs[j].b} {
			if visited[d] {
				continue
			}
			visited[d] = true
			// Iterate a snapshot: a failed attempt below swap-removes and
			// re-appends inside byDisk[d], which would skip the swapped-in
			// occupant and retry the removed one if ranged over live.
			occs := append([]int(nil), byDisk[d]...)
			for _, occ := range occs {
				other := jobs[occ].a
				if other == d {
					other = jobs[occ].b
				}
				if other == d {
					continue // occupant has no alternative
				}
				// Temporarily remove the occupant — at its current index,
				// which earlier failed attempts may have shifted — and try
				// to re-place it.
				i := indexOf(byDisk[d], occ)
				byDisk[d][i] = byDisk[d][len(byDisk[d])-1]
				byDisk[d] = byDisk[d][:len(byDisk[d])-1]
				loads[d]--
				if place(occ, visited) {
					loads[d]++
					byDisk[d] = append(byDisk[d], j)
					return true
				}
				// Restore.
				loads[d]++
				byDisk[d] = append(byDisk[d], occ)
			}
		}
		return false
	}
	for j := range jobs {
		visited := make([]bool, r.m)
		if !place(j, visited) {
			return nil, false
		}
	}
	return byDisk, true
}

// indexOf returns the position of x in xs; xs must contain x.
func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	panic("replica: occupant vanished from its disk list")
}

// Evaluate measures the replicated scheme over a workload with the
// paper's aggregates, reusing cost.Result semantics (replica choice
// folded into RT).
func (r *Replicated) Evaluate(name string, queries []grid.Rect) cost.Result {
	res := cost.Result{Method: r.Name(), Workload: name, Queries: len(queries)}
	if len(queries) == 0 {
		res.Ratio = 1
		return res
	}
	sumRT, sumOpt, optCount := 0, 0, 0
	for _, q := range queries {
		rt := r.ResponseTime(q)
		opt := cost.OptimalRT(q.Volume(), r.m)
		sumRT += rt
		sumOpt += opt
		if rt == opt {
			optCount++
		}
		if rt > res.WorstRT {
			res.WorstRT = rt
		}
	}
	n := float64(len(queries))
	res.MeanRT = float64(sumRT) / n
	res.MeanOpt = float64(sumOpt) / n
	if res.MeanOpt > 0 {
		res.Ratio = res.MeanRT / res.MeanOpt
	} else {
		res.Ratio = 1
	}
	res.FracOptimal = float64(optCount) / n
	return res
}
