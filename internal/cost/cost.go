// Package cost implements the performance metric of the declustering
// study. For a query touching the bucket set Q under an allocation onto
// M disks, the response time is the number of buckets the busiest disk
// must read,
//
//	RT(Q) = max_d |{q ∈ Q : diskOf(q) = d}|,
//
// because the M disks read their shares in parallel. No allocation can
// beat RT_opt(Q) = ⌈|Q|/M⌉, so the study reports both the mean response
// time of a method over a workload and its deviation from that optimum.
package cost

import (
	"sync"

	"decluster/internal/alloc"
	"decluster/internal/grid"
	"decluster/internal/query"
	"decluster/internal/stats"
)

// DiskLoads returns, per disk, how many buckets of r the method assigns
// to it. The slice has Disks() entries.
func DiskLoads(m alloc.Method, r grid.Rect) []int {
	loads := make([]int, m.Disks())
	grid.EachRect(r, func(c grid.Coord) bool {
		loads[m.DiskOf(c)]++
		return true
	})
	return loads
}

// ResponseTime returns the parallel response time of the query r under
// method m, in bucket accesses: the maximum per-disk load.
func ResponseTime(m alloc.Method, r grid.Rect) int {
	return stats.MaxInts(DiskLoads(m, r))
}

// OptimalRT returns the information-theoretic lower bound ⌈volume/M⌉ on
// the response time of any allocation for a query of the given volume.
// The ceiling is computed divide-first so a volume near math.MaxInt
// (e.g. a saturated Rect.Volume) cannot wrap the addition.
func OptimalRT(volume, disks int) int {
	q := volume / disks
	if volume%disks != 0 {
		q++
	}
	return q
}

// IsOptimalFor reports whether method m achieves the optimal response
// time on query r.
func IsOptimalFor(m alloc.Method, r grid.Rect) bool {
	return ResponseTime(m, r) == OptimalRT(r.Volume(), m.Disks())
}

// Result aggregates a method's performance over one workload.
type Result struct {
	Method   string  // method name
	Workload string  // workload name
	Queries  int     // number of queries evaluated
	MeanRT   float64 // mean response time, bucket accesses
	MeanOpt  float64 // mean optimal response time
	Ratio    float64 // MeanRT / MeanOpt: mean deviation from optimal (≥ 1)
	WorstRT  int     // worst response time observed
	// FracOptimal is the fraction of queries on which the method
	// achieved the optimal response time exactly.
	FracOptimal float64
}

// Evaluate measures method m over workload w.
func Evaluate(m alloc.Method, w query.Workload) Result {
	return aggregate(m.Name(), m.Disks(), w, nil, func(q grid.Rect) int {
		return ResponseTime(m, q)
	})
}

// EvaluateVolumes is ev.Evaluate(w), bit-identical, for a caller that
// evaluates w under several methods and has measured its queries'
// volumes once: volumes[i] must be w.Queries[i].Volume().
func EvaluateVolumes(ev RTEvaluator, w query.Workload, volumes []int) Result {
	m := ev.Method()
	return aggregate(m.Name(), m.Disks(), w, volumes, ev.ResponseTime)
}

// aggregate folds per-query response times into a Result. Every kernel
// (the naive walk above, Evaluator, PrefixEvaluator) and
// EvaluateVolumes funnel through this one loop so their Results are
// bit-identical: same integer sums, same float divisions, in the same
// order. volumes holds each query's Volume() when the caller measured
// them; nil measures them here.
func aggregate(method string, disks int, w query.Workload, volumes []int, rt func(grid.Rect) int) Result {
	res := Result{Method: method, Workload: w.Name, Queries: len(w.Queries)}
	if len(w.Queries) == 0 {
		res.Ratio = 1
		return res
	}
	sumRT, sumOpt, optimalCount := 0, 0, 0
	for i, q := range w.Queries {
		t := rt(q)
		var volume int
		if volumes != nil {
			volume = volumes[i]
		} else {
			volume = q.Volume()
		}
		opt := OptimalRT(volume, disks)
		sumRT += t
		sumOpt += opt
		if t == opt {
			optimalCount++
		}
		if t > res.WorstRT {
			res.WorstRT = t
		}
	}
	n := float64(len(w.Queries))
	res.MeanRT = float64(sumRT) / n
	res.MeanOpt = float64(sumOpt) / n
	res.Ratio = stats.Ratio(res.MeanRT, res.MeanOpt)
	res.FracOptimal = float64(optimalCount) / n
	return res
}

// EvaluateAll measures every method over the same workload, preserving
// method order — one row per method of an experiment's table. Methods
// are evaluated concurrently (each with its own table-materializing
// Evaluator; see evaluator.go), which is safe because methods are
// immutable after construction.
func EvaluateAll(methods []alloc.Method, w query.Workload) []Result {
	out := make([]Result, len(methods))
	var wg sync.WaitGroup
	for i, m := range methods {
		wg.Add(1)
		go func(i int, m alloc.Method) {
			defer wg.Done()
			out[i] = NewEvaluator(m).Evaluate(w)
		}(i, m)
	}
	wg.Wait()
	return out
}

// Matrix evaluates every method over every workload: one row per
// workload, one column per method. Rows preserve workload order,
// columns method order. Evaluators are shared across workloads, so the
// allocation tables materialize once per method.
func Matrix(methods []alloc.Method, ws []query.Workload) [][]Result {
	evals := make([]*Evaluator, len(methods))
	for i, m := range methods {
		evals[i] = NewEvaluator(m)
	}
	out := make([][]Result, len(ws))
	for i, w := range ws {
		row := make([]Result, len(methods))
		for j, e := range evals {
			row[j] = e.Evaluate(w)
		}
		out[i] = row
	}
	return out
}
