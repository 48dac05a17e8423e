package serve

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/fault"
)

// Allow and EWMALatency answer from atomics that Observe and the
// cooldown tick keep in step with the locked state. Hammer them, with
// Snapshot and Open, against a driver that walks one breaker
// through trip → cooldown → half-open → reclose over and over: under
// -race this is the test that the lock-free reads are reads of atomics,
// and at every quiet point of the cycle the two views must agree.
func TestHealthLockFreeReadsThroughBreakerCycle(t *testing.T) {
	const (
		cycles    = 40
		threshold = 3
		probes    = 2
		slow      = 5 * time.Millisecond
		fast      = 50 * time.Microsecond
	)
	h, err := NewBreakers(BreakerConfig{ErrorThreshold: threshold, Cooldown: 200 * time.Microsecond, HalfOpenProbes: probes}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := h.disks[1]

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				allowed := h.Allow(1)
				if lat := h.EWMALatency(1); lat < 0 || lat > slow {
					t.Errorf("EWMALatency = %v, outside [0, %v]", lat, slow)
					return
				}
				snap := h.Snapshot()[1]
				if snap.State < BreakerClosed || snap.State > BreakerHalfOpen {
					t.Errorf("snapshot state %v", snap.State)
					return
				}
				if !allowed && snap.Trips == 0 {
					t.Error("Allow refused a disk whose breaker never tripped")
					return
				}
				if !h.Allow(0) || h.EWMALatency(0) != 0 || len(h.Open()) > 1 {
					t.Error("the untouched disk 0 was disturbed")
					return
				}
			}
		}()
	}

	// agree checks, with no Observe in flight, that the atomics say what
	// the locked state says.
	agree := func(when string, want BreakerState) {
		t.Helper()
		tr.mu.Lock()
		state, unsettled := tr.state, tr.unsettled.Load()
		tr.mu.Unlock()
		if state != want || unsettled != (want != BreakerClosed) {
			t.Fatalf("%s: state %v, unsettled %v; want %v", when, state, unsettled, want)
		}
	}
	for c := 1; c <= cycles; c++ {
		h.Observe(1, slow, nil)
		if got := h.EWMALatency(1); got != slow {
			t.Fatalf("cycle %d: EWMA %v after the first sample since reclosing, want %v", c, got, slow)
		}
		for i := 0; i < threshold; i++ {
			agree("before the trip", BreakerClosed)
			h.Observe(1, 0, fault.ErrTransient)
		}
		if h.Trips() != uint64(c) {
			t.Fatalf("cycle %d: %d trips", c, h.Trips())
		}
		// The cooldown: wait for the tick any accessor applies (a reader's
		// or this one), not for the clock.
		for deadline := time.Now().Add(10 * time.Second); !h.Allow(1); {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: breaker still open", c)
			}
		}
		agree("after the cooldown", BreakerHalfOpen)
		for i := 0; i < probes; i++ {
			h.Observe(1, fast, nil)
		}
		agree("after the probes", BreakerClosed)
		if !h.Allow(1) || h.EWMALatency(1) != 0 {
			t.Fatalf("cycle %d: reclosed breaker allows %v with EWMA %v, want true and a forgotten latency", c, h.Allow(1), h.EWMALatency(1))
		}
	}
	close(stop)
	readers.Wait()

	snap := h.Snapshot()[1]
	if want := uint64(cycles * (1 + threshold + probes)); snap.Reads != want || snap.Errors != cycles*threshold || snap.Trips != cycles {
		t.Fatalf("after %d cycles: %+v, want %d reads, %d errors, %d trips", cycles, snap, want, cycles*threshold, cycles)
	}
}

// TestBreakersHealthyPickReadsNoClock: with no holder on probation,
// choosing a lead and a backup costs an atomic load per holder — no clock
// read, no allocation. A holder on probation costs the clock read that
// times its probe, and exactly one caller wins each probe. Untracked
// holders, open breakers and the cooldown run on the same injected clock.
func TestBreakersHealthyPickReadsNoClock(t *testing.T) {
	const after = time.Millisecond
	h, err := NewBreakers(BreakerConfig{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	reads, now := 0, int64(1<<40)
	h.now = func() int64 { reads++; return now }
	standing := func(d int) *atomic.Int64 { return &h.disks[d].standing }
	// Chain placement over four endpoints: holder 0 leads shard 0 and
	// backs up shard 3.
	shards := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	pick := func() {
		for _, c := range shards {
			if lead := h.Lead(c, 0); lead != c[0] {
				t.Fatalf("healthy shard %v led by %d", c, lead)
			}
			if backup, delay := h.Backup(c, c[0], after); backup != c[1] || delay != after {
				t.Fatalf("healthy shard %v hedges to %d after %v", c, backup, delay)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, pick); allocs != 0 || reads != 0 {
		t.Fatalf("healthy picks: %.0f allocs, %d clock reads; want none", allocs, reads)
	}

	lead, back := shards[0], shards[len(shards)-1]
	standing(0).Store(now + 1) // due after now
	if got := h.Lead(lead, 0); got != lead[1] || reads != 1 {
		t.Fatalf("holder on probation: lead %d after %d clock reads, want %d after 1", got, reads, lead[1])
	}
	if backup, delay := h.Backup(back, back[0], after); backup != 0 || delay != 0 {
		t.Fatalf("timed hedge to a holder on probation: backup %d after %v", backup, delay)
	}
	standing(lead[1]).Store(now + 1) // every holder of shard 0 on probation: 0 leads, timed hedge as ever
	if got := h.Lead(lead, 0); got != 0 {
		t.Fatalf("every holder on probation: lead %d, want rotation's 0", got)
	} else if backup, delay := h.Backup(lead, got, after); backup != lead[1] || delay != after {
		t.Fatalf("lead on probation: hedge to %d after %v, want a timed hedge to %d", backup, delay, lead[1])
	}
	standing(lead[1]).Store(0)
	standing(0).Store(1) // due: the next first attempt probes it, the one after keeps away
	if a, b := h.Lead(lead, 0), h.Lead(lead, 0); a != 0 || b != lead[1] {
		t.Fatalf("due probation: leads %d then %d, want one probe of 0 then %d", a, b, lead[1])
	}
	h.Settle(0, true, false)
	if due := standing(0).Load(); due != 0 {
		t.Fatalf("a won lead left the stamp at %d", due)
	}
	if !h.Settle(2, false, true) || h.Settle(2, false, true) || !slices.Equal(h.OnProbation(), []int{2}) {
		t.Fatalf("overtaken twice: on probation %v, want 2 entered once", h.OnProbation())
	}
	h.Settle(2, true, false)

	// An endpoint the set does not track (a member that joined after it
	// was built) is allowed, in good standing, at EWMA 0, and unbooked.
	if !h.Allow(4) || h.EWMALatency(4) != 0 || h.Lead([]int{4, 0}, 0) != 4 {
		t.Fatal("untracked holder refused as lead")
	}
	if backup, delay := h.Backup([]int{0, 4}, 0, after); backup != 4 || delay != after {
		t.Fatalf("untracked co-holder: backup %d after %v, want 4 after %v", backup, delay, after)
	}
	if h.Settle(4, false, true) || len(h.OnProbation()) != 0 {
		t.Fatalf("an overtaken untracked holder went on probation: %v", h.OnProbation())
	}

	// An open breaker is no backup; it goes half-open exactly one
	// Cooldown after the trip, by the injected clock.
	for i := 0; i < 5; i++ { // the default error threshold
		h.Observe(1, 0, fault.ErrTransient)
	}
	if backup, delay := h.Backup(lead, 0, after); backup != -1 || delay != 0 {
		t.Fatalf("open-breaker co-holder: backup %d after %v, want -1 after 0", backup, delay)
	}
	now += int64(h.Cooldown()) - 1
	if h.Allow(1) {
		t.Fatal("breaker half-open before its cooldown")
	}
	now++
	if !h.Allow(1) || h.Snapshot()[1].State != BreakerHalfOpen {
		t.Fatalf("at the cooldown: state %v, want half-open", h.Snapshot()[1].State)
	}
}
