package experiments

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/grid"
)

// The driver's tests wait on gates — channels the test's do closes or
// fills — never on sleeps: a soak is declared stuck only by the
// package's own test timeout.

func soakRect(t *testing.T) func(*rand.Rand) grid.Rect {
	t.Helper()
	g, err := grid.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return func(*rand.Rand) grid.Rect { return g.FullRect() }
}

// TestSoakLedgerConservation: every issued query is booked under
// exactly one outcome, except the one that found the server gone —
// that one ends its issuer instead.
func TestSoakLedgerConservation(t *testing.T) {
	const clients, perClient = 4, 50
	mix := []outcome{answered, shed, unavailable, partial, failed}
	var calls atomic.Int64
	s := newSoak(time.Minute, func(context.Context, grid.Rect) outcome {
		n := calls.Add(1)
		if n > clients*perClient {
			return gone
		}
		return mix[n%int64(len(mix))]
	})
	s.clients(clients, 1, soakRect(t), closedLoop)
	s.wait() // every issuer exits on its own gone; no halt needed

	booked := s.total(mix...)
	if booked != clients*perClient {
		t.Errorf("booked %d outcomes, want %d", booked, clients*perClient)
	}
	if got, want := s.issued.Load(), booked+clients; got != want {
		t.Errorf("issued %d, want %d booked + %d gone exits = %d", got, booked, clients, want)
	}
	for _, o := range mix {
		if s.total(o) != clients*perClient/uint64(len(mix)) {
			t.Errorf("outcome %d booked %d times, want an even share", o, s.total(o))
		}
	}
	if len(s.lats[0]) != int(s.total(answered)) {
		t.Errorf("kept %d latencies for %d answered queries", len(s.lats[0]), s.total(answered))
	}
}

// TestSoakArrivalsIndependentOfCompletions: with every query blocked,
// closed-loop clients issue one query each and stall, while open-loop
// arrivals keep issuing — the property the flash-crowd result rests on.
func TestSoakArrivalsIndependentOfCompletions(t *testing.T) {
	const clients, surge = 3, 40
	g, err := grid.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The two kinds of issuer draw different rectangles, so do can tell
	// whose query it is holding.
	closedQ, openQ := g.FullRect(), g.MustRect(grid.Coord{0, 0}, grid.Coord{0, 0})
	var fromClients, fromArrivals atomic.Int64
	entered := make(chan struct{}, 1) // a wake-up, not a count: one pending signal is enough
	gate := make(chan struct{})
	s := newSoak(time.Minute, func(_ context.Context, q grid.Rect) outcome {
		if q.Volume() == closedQ.Volume() {
			fromClients.Add(1)
		} else {
			fromArrivals.Add(1)
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return answered
	})
	s.clients(clients, 1, func(*rand.Rand) grid.Rect { return closedQ }, closedLoop)
	s.arrivals(1, 1, 0, time.Hour, 100*time.Microsecond, func(*rand.Rand) grid.Rect { return openQ })
	for fromClients.Load() < clients || fromArrivals.Load() < surge {
		<-entered
	}
	s.halt()
	if got := fromClients.Load(); got != clients {
		t.Errorf("blocked closed-loop clients issued %d queries while one open-loop issuer got %d out; want %d",
			got, fromArrivals.Load(), clients)
	}
	if got := s.total(answered); got != 0 {
		t.Errorf("%d queries answered through a closed gate", got)
	}
	close(gate)
	s.wait()
	if got, want := s.total(answered), s.issued.Load(); got != want {
		t.Errorf("answered %d of %d issued once the gate opened", got, want)
	}
}

// TestSoakHaltDrains: halt stops the issuing, but a query in flight
// still runs to its own end under a live context, and wait returns only
// after it and every timeline action have finished.
func TestSoakHaltDrains(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var ctxErrInFlight error
	s := newSoak(time.Minute, func(ctx context.Context, _ grid.Rect) outcome {
		entered <- struct{}{}
		<-release
		ctxErrInFlight = ctx.Err()
		return answered
	})
	actionStarted, actionRelease := make(chan struct{}), make(chan struct{})
	var actionDone atomic.Bool
	s.at(0, func() {
		close(actionStarted)
		<-actionRelease
		actionDone.Store(true)
	})
	s.clients(1, 1, soakRect(t), closedLoop)
	<-entered
	<-actionStarted // an action not yet due at halt would be dropped, not waited for
	s.halt()

	waited := make(chan struct{})
	go func() {
		s.wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("wait returned with a query still in flight")
	default:
	}
	if err := s.ctx.Err(); err != nil {
		t.Fatalf("soak context ended before its issuers drained: %v", err)
	}
	close(release)
	// The issuer drains; the action still holds wait open.
	<-s.ctx.Done()
	select {
	case <-waited:
		t.Fatal("wait returned with a timeline action still running")
	default:
	}
	close(actionRelease)
	<-waited

	if ctxErrInFlight != nil {
		t.Errorf("in-flight query saw its context end at halt: %v", ctxErrInFlight)
	}
	if !actionDone.Load() {
		t.Error("wait returned before the timeline action finished")
	}
	if s.issued.Load() != 1 || s.total(answered) != 1 {
		t.Errorf("issued %d answered %d after halt, want 1 and 1", s.issued.Load(), s.total(answered))
	}
}

// TestSoakActionPastEndNeverRuns: the end of a soak is a timeline entry
// like any other, and an action due after it is dropped, not run late.
func TestSoakActionPastEndNeverRuns(t *testing.T) {
	s := newSoak(time.Minute, func(context.Context, grid.Rect) outcome { return answered })
	var early, late atomic.Bool
	s.at(time.Hour, func() { late.Store(true) })
	s.at(0, func() {
		early.Store(true)
		s.halt()
	})
	s.wait()
	if !early.Load() {
		t.Error("action due at the start never ran")
	}
	if late.Load() {
		t.Error("action due an hour past the end ran")
	}
}

// TestSoakLatencyLandsInIssuePhase: a query issued in one phase and
// answered in the next is a sample of the phase that issued it.
func TestSoakLatencyLandsInIssuePhase(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := newSoak(time.Minute, func(context.Context, grid.Rect) outcome {
		entered <- struct{}{}
		<-release
		return answered
	})
	s.clients(1, 1, soakRect(t), closedLoop)
	<-entered // issued in phase 0
	s.phase.Store(1)
	release <- struct{}{}
	<-entered // the next one is issued in phase 1
	s.halt()
	release <- struct{}{}
	s.wait()
	if len(s.lats[0]) != 1 || len(s.lats[1]) != 1 {
		t.Errorf("latencies by phase = %d, %d; want 1 and 1", len(s.lats[0]), len(s.lats[1]))
	}
	if s.percentile(0, 0.5) <= 0 || s.percentile(2, 0.5) != 0 {
		t.Errorf("percentiles: phase 0 = %v (want > 0), empty phase 2 = %v (want 0)",
			s.percentile(0, 0.5), s.percentile(2, 0.5))
	}
}

// TestSoakGoneEndsIssuer: a closed server ends that issuer without
// booking an outcome, and leaves the others running.
func TestSoakGoneEndsIssuer(t *testing.T) {
	var once sync.Once
	progressed := make(chan struct{}, 1)
	var after atomic.Int64
	s := newSoak(time.Minute, func(context.Context, grid.Rect) outcome {
		o := answered
		once.Do(func() { o = gone })
		if o == answered && after.Add(1) == 10 {
			progressed <- struct{}{}
		}
		return o
	})
	s.clients(2, 1, soakRect(t), closedLoop)
	<-progressed // the surviving client keeps issuing after its peer left
	s.halt()
	s.wait()
	booked := s.total(answered, shed, unavailable, partial, failed)
	if got := s.issued.Load(); got != booked+1 {
		t.Errorf("issued %d, booked %d: want exactly one unbooked gone exit", got, booked)
	}
	if booked != s.total(answered) {
		t.Errorf("gone was booked under an outcome: %d booked, %d answered", booked, s.total(answered))
	}
}
