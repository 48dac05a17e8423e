// Package replica implements replicated declustering — the extension
// the reproduced paper flags as open ("while assigning a data block to
// multiple disks … has been considered at the disk block level, for
// reliability purposes, no corresponding data replication approaches
// have been proposed for data declustering"). Every bucket is stored on
// a primary and a backup disk (chained declustering, Hsiao & DeWitt
// 1990: backup = primary + 1 mod M, or a configurable offset), and a
// query may read each bucket from either replica. The response time is
// then a scheduling problem — assign each bucket to one of its live
// holders minimizing the busiest disk — which Assign solves *exactly*
// for any number of holders per bucket, by shifting reads along paths
// from a busiest disk to one at least two reads lighter until none is
// left.
package replica

import (
	"fmt"
	"slices"
	"sort"

	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/fault"
	"decluster/internal/grid"
)

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

// Holders returns the disks that store the row-major bucket b, primary
// then backup, in a fresh slice.
func (r *Replicated) Holders(b int) []int { return []int{r.primary[b], r.backup[b]} }

// StorageOverhead returns the replication factor (2.0 — every bucket
// stored twice). Provided for symmetry with cost reporting.
func (r *Replicated) StorageOverhead() float64 { return 2.0 }

// ResponseTime returns the exact optimal response time of the query
// under free replica choice: the minimum over all bucket→replica
// assignments of the busiest disk's bucket count.
func (r *Replicated) ResponseTime(rect grid.Rect) int {
	_, _, rt, _ := r.schedule(r.g.AppendRect(nil, rect), nil)
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
	_, _, rt, err := r.schedule(r.g.AppendRect(nil, rect), failed)
	return rt, err
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
	ids, pick, _, err := r.schedule(buckets, failed)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, len(ids))
	for j, b := range ids {
		out[b] = pick[j]
	}
	return out, nil
}

// schedule places the buckets on their live holders with the busiest
// disk as light as it can be: bucket ids[j] is read from disk pick[j].
func (r *Replicated) schedule(buckets, failed []int) (ids, pick []int, busiest int, err error) {
	fs, err := r.failedSet(failed)
	if err != nil {
		return nil, nil, 0, err
	}
	jobs, ids, err := r.gather(buckets, fs)
	if err != nil {
		return nil, nil, 0, err
	}
	pick, busiest = Assign(jobs, r.m)
	return ids, pick, busiest, nil
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

// gather collects each listed bucket's live holders, primary first, plus
// the bucket ids in visit order. Repeated buckets contribute one job
// (the physical read happens once). Buckets that lost every holder make
// the set unavailable.
func (r *Replicated) gather(buckets []int, failed map[int]bool) ([][]int, []int, error) {
	jobs := make([][]int, 0, len(buckets))
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
		live := slices.DeleteFunc(r.Holders(idx), func(d int) bool { return failed[d] })
		if len(live) == 0 {
			lost = append(lost, idx)
			continue
		}
		jobs = append(jobs, live)
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

// Assign places every job on one of the resources it may use so that
// the busiest resource holds as few jobs as possible. jobs[j] lists the
// resources in [0, resources) that job j may use, at least one and any
// number of them. pick[j] is job j's resource and busiest the optimal
// busiest-resource count.
//
// Every job starts on its first resource. While a path leads from a
// busiest resource, through jobs that may move, to a resource holding
// at least two fewer jobs, each job on it shifts one step along it.
// When no path is left the answer is optimal: the resources reachable
// from the busiest ones hold more than busiest−1 jobs each on average,
// and none of those jobs may leave them (the cost-reducing paths of
// Harvey, Ladner, Lovász and Tamir, "Semi-matchings for bipartite
// graphs and load balancing", J. Algorithms 2006).
func Assign(jobs [][]int, resources int) (pick []int, busiest int) {
	pick = make([]int, len(jobs))
	load := make([]int, resources)
	for j, h := range jobs {
		pick[j] = h[0]
		load[h[0]]++
	}
	// on[start[d]:start[d+1]] are the jobs on resource d; via[d] is the
	// job whose shift reaches d (root for a busiest resource, unseen if
	// the search has not reached d).
	const root, unseen = -1, -2
	on, start, next, via := make([]int, len(jobs)), make([]int, resources+1), make([]int, resources), make([]int, resources)
	var queue []int
	for {
		busiest = 0
		for _, l := range load {
			busiest = max(busiest, l)
		}
		for d, l := range load {
			start[d+1] = start[d] + l
		}
		copy(next, start)
		for j, d := range pick {
			on[next[d]] = j
			next[d]++
		}
		queue = queue[:0]
		for d, l := range load {
			via[d] = unseen
			if l == busiest {
				via[d] = root
				queue = append(queue, d)
			}
		}
		end := -1
	search:
		for i := 0; i < len(queue); i++ {
			d := queue[i]
			for _, j := range on[start[d]:start[d+1]] {
				for _, e := range jobs[j] {
					if via[e] != unseen {
						continue
					}
					via[e] = j
					if load[e] <= busiest-2 {
						end = e
						break search
					}
					queue = append(queue, e)
				}
			}
		}
		if end < 0 {
			return pick, busiest
		}
		load[end]++
		for via[end] != root {
			j := via[end]
			end, pick[j] = pick[j], end
		}
		load[end]--
	}
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
