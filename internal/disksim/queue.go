package disksim

import (
	"fmt"
	"math/rand"
	"time"

	"decluster/internal/gridfile"
	"decluster/internal/stats"
)

// QueueResult summarizes an open-system simulation run.
type QueueResult struct {
	// ArrivalRate is the offered load in queries per second.
	ArrivalRate float64
	// Completed counts queries simulated.
	Completed int
	// MeanResponse and P95Response are arrival-to-completion times.
	MeanResponse time.Duration
	P95Response  time.Duration
	// Utilization is the busiest disk's busy fraction of the makespan.
	Utilization float64
}

// SimulateOpen runs an open queueing simulation: n queries arrive as a
// Poisson process of the given rate (deterministic under seed), each
// drawing its access trace uniformly from traces. Every disk serves its
// per-query access batches FIFO in arrival order; a query completes
// when all its disks finish its batch, and its response time is
// completion minus arrival. This is the multi-user view of
// declustering quality — the regime of the multiuser studies the
// reproduced paper cites — where imbalanced per-query disk loads
// inflate responses long before the system saturates.
func (s *Simulator) SimulateOpen(traces []gridfile.Trace, rate float64, n int, seed int64) (QueueResult, error) {
	if len(traces) == 0 {
		return QueueResult{}, fmt.Errorf("disksim: no traces to sample")
	}
	if rate <= 0 {
		return QueueResult{}, fmt.Errorf("disksim: arrival rate must be positive, got %v", rate)
	}
	if n < 1 {
		return QueueResult{}, fmt.Errorf("disksim: need ≥ 1 queries, got %d", n)
	}
	disks := 0
	for _, t := range traces {
		if len(t.PerDisk) > disks {
			disks = len(t.PerDisk)
		}
	}
	if disks == 0 {
		return QueueResult{}, fmt.Errorf("disksim: traces carry no disks")
	}

	rng := rand.New(rand.NewSource(seed))
	diskFree := make([]time.Duration, disks) // when each disk next idles
	busy := make([]time.Duration, disks)     // accumulated busy time
	responses := make([]time.Duration, 0, n)

	var now time.Duration
	var makespan time.Duration
	for i := 0; i < n; i++ {
		// Exponential inter-arrival with mean 1/rate seconds.
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		now += gap
		tr := traces[rng.Intn(len(traces))]

		var completion time.Duration
		for d, accesses := range tr.PerDisk {
			if len(accesses) == 0 {
				continue
			}
			svc := s.serveDisk(accesses)
			start := now
			if diskFree[d] > start {
				start = diskFree[d]
			}
			end := start + svc
			diskFree[d] = end
			busy[d] += svc
			if end > completion {
				completion = end
			}
		}
		if completion == 0 {
			completion = now // empty trace: instantaneous
		}
		responses = append(responses, completion-now)
		if completion > makespan {
			makespan = completion
		}
	}

	res := QueueResult{ArrivalRate: rate, Completed: n}
	var sum time.Duration
	for _, r := range responses {
		sum += r
	}
	res.MeanResponse = sum / time.Duration(n)
	res.P95Response = stats.NearestRank(responses, 0.95)
	if makespan > 0 {
		maxBusy := time.Duration(0)
		for _, b := range busy {
			if b > maxBusy {
				maxBusy = b
			}
		}
		res.Utilization = float64(maxBusy) / float64(makespan)
	}
	return res, nil
}
