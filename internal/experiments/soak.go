package experiments

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"decluster/internal/batch"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/serve"
	"decluster/internal/stats"
)

// outcome is how one soak query ended, as the ledger books it.
type outcome int

const (
	answered    outcome = iota // complete, correct answer; its latency is kept
	shed                       // rejected, evicted or expired by admission control
	unavailable                // typed unavailability: buckets unreachable
	partial                    // typed partial result (cluster soaks)
	failed                     // anything else: deadline overruns, exhausted retries
	gone                       // the server closed under the issuer: it exits, nothing is booked
)

// serveOutcome books a scheduler or batch-engine error.
func serveOutcome(err error) outcome {
	switch {
	case err == nil:
		return answered
	case errors.Is(err, serve.ErrClosed), errors.Is(err, batch.ErrClosed):
		return gone
	case errors.Is(err, serve.ErrOverloaded):
		return shed
	case errors.Is(err, fault.ErrUnavailable):
		return unavailable
	default:
		return failed
	}
}

// soak is the one wall-clock load driver behind EC, EN, ER and EB: it
// issues queries through do from closed-loop clients and open-loop
// arrivals, books every outcome in one ledger, keeps answered latencies
// per phase, and plays timeline actions beside the load. Every decision
// about when to issue, how long to pause and when an action fires reads
// the clock here and nowhere else.
//
// Stopping has two stages. halt closes stop: issuers issue nothing
// more, pauses end early and timeline actions not yet due never run.
// The context is cancelled only by wait, after the issuers have drained
// — so a query in flight when the soak lapses still finishes under its
// own deadline and is booked for what it did, not as a casualty of the
// harness.
type soak struct {
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time
	stop   chan struct{}
	once   sync.Once

	deadline time.Duration // per query, queueing included
	do       func(context.Context, grid.Rect) outcome

	issuers sync.WaitGroup // clients, arrivals and every open-loop query in flight
	actions sync.WaitGroup

	issued atomic.Uint64
	counts [gone]atomic.Uint64 // by outcome
	phase  atomic.Int32
	mu     sync.Mutex
	lats   map[int32][]time.Duration // answered latencies, by phase at issue
}

// newSoak starts the soak's clock. do answers one query under the
// context it is given — the soak's, bounded by deadline — and says how
// it ended.
func newSoak(deadline time.Duration, do func(context.Context, grid.Rect) outcome) *soak {
	ctx, cancel := context.WithCancel(context.Background())
	return &soak{
		ctx: ctx, cancel: cancel, start: time.Now(), stop: make(chan struct{}),
		deadline: deadline, do: do, lats: map[int32][]time.Duration{},
	}
}

func (s *soak) halt() { s.once.Do(func() { close(s.stop) }) }

func (s *soak) halted() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// sleep waits d and reports whether the soak is still running.
func (s *soak) sleep(d time.Duration) bool {
	if d <= 0 {
		return !s.halted()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.stop:
		return false
	case <-t.C:
		return true
	}
}

// wait returns once the issuers have drained, the context is cancelled
// and every timeline action has returned — in that order: an action
// may outlive the load on a deadline of its own (a migration left to
// converge), but none outlives wait.
func (s *soak) wait() {
	s.issuers.Wait()
	s.cancel()
	s.actions.Wait()
}

// issue runs one query and books it. The latency lands in the phase
// current when the query was issued, whatever the phase when it ends.
func (s *soak) issue(q grid.Rect) (outcome, time.Duration) {
	p := s.phase.Load()
	s.issued.Add(1)
	ctx, cancel := context.WithTimeout(s.ctx, s.deadline)
	start := time.Now()
	o := s.do(ctx, q)
	elapsed := time.Since(start)
	cancel()
	if o == gone {
		return o, elapsed
	}
	s.counts[o].Add(1)
	if o == answered {
		s.mu.Lock()
		s.lats[p] = append(s.lats[p], elapsed)
		s.mu.Unlock()
	}
	return o, elapsed
}

// closedLoop is the pause of a pure closed loop: the next query goes
// out as soon as the previous one resolves.
func closedLoop(outcome, time.Duration, *rand.Rand) time.Duration { return 0 }

// clients starts n closed-loop issuers. Client c draws its queries
// from next with a generator of its own, seeded seed+c, and after each
// one waits pause(outcome, elapsed, that generator) — which is all that
// QPS pacing, shed back-off and think time are.
func (s *soak) clients(n int, seed int64, next func(*rand.Rand) grid.Rect, pause func(outcome, time.Duration, *rand.Rand) time.Duration) {
	for c := 0; c < n; c++ {
		s.issuers.Add(1)
		go func(c int) {
			defer s.issuers.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for !s.halted() {
				o, elapsed := s.issue(next(rng))
				if o == gone || !s.sleep(pause(o, elapsed, rng)) {
					return
				}
			}
		}(c)
	}
}

// arrivals starts n open-loop issuers: between the offsets from and to
// each fires one query every interval whether or not the earlier ones
// have answered. A crowd does not slow its arrival rate when the
// service degrades; under-capacity the queues grow and the tail blows
// through the deadline, which a closed loop would mask.
func (s *soak) arrivals(n int, seed int64, from, to, interval time.Duration, next func(*rand.Rand) grid.Rect) {
	for c := 0; c < n; c++ {
		s.issuers.Add(1)
		go func(c int) {
			defer s.issuers.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			if !s.sleep(from - time.Since(s.start)) {
				return
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for !s.halted() && time.Since(s.start) < to {
				q := next(rng)
				s.issuers.Add(1) // safe beside wait: this issuer still holds a count
				go func() {
					defer s.issuers.Done()
					s.issue(q)
				}()
				select {
				case <-s.stop:
					return
				case <-tick.C:
				}
			}
		}(c)
	}
}

// at runs action once the soak is offset old, unless it halts first.
// The end of a timed soak is one more entry: at(duration, s.halt).
func (s *soak) at(offset time.Duration, action func()) {
	s.actions.Add(1)
	go func() {
		defer s.actions.Done()
		if s.sleep(offset - time.Since(s.start)) {
			action()
		}
	}()
}

// total sums the ledger over the given outcomes.
func (s *soak) total(outcomes ...outcome) uint64 {
	var n uint64
	for _, o := range outcomes {
		n += s.counts[o].Load()
	}
	return n
}

// percentile is the nearest-rank p-quantile of the latencies of the
// queries answered out of one phase.
func (s *soak) percentile(phase int32, p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stats.NearestRank(s.lats[phase], p)
}

// uniformRects draws the soaks' foreground queries: rectangles of up
// to half the grid per side, placed uniformly.
func uniformRects(g *grid.Grid) func(*rand.Rand) grid.Rect {
	return func(rng *rand.Rand) grid.Rect {
		w := 1 + rng.Intn(max(1, g.Dim(0)/2))
		h := 1 + rng.Intn(max(1, g.Dim(1)/2))
		x, y := rng.Intn(g.Dim(0)-w+1), rng.Intn(g.Dim(1)-h+1)
		return g.MustRect(grid.Coord{x, y}, grid.Coord{x + w - 1, y + h - 1})
	}
}
