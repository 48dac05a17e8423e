package serve

import (
	"sync"
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
