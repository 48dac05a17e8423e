package decluster_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	decluster "decluster"
)

// The serving layer, end to end through the facade: a scheduler with
// faults, failover, hedging, breakers, and admission control answers a
// concurrent workload correctly and drains cleanly.
func TestFacadeServe(t *testing.T) {
	f, m, r := faultFixture(t)
	ctx := context.Background()

	healthy, err := decluster.ParallelRangeSearch(ctx, f, r)
	if err != nil {
		t.Fatal(err)
	}

	inj, err := decluster.NewFaultInjector(decluster.FaultConfig{
		Seed:          9,
		TransientProb: 0.2,
		Stragglers:    map[int]float64{2: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := decluster.NewOffsetReplication(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := decluster.Serve(f,
		decluster.WithServeFaults(inj),
		decluster.WithServeFailover(rep),
		decluster.WithServeRetry(decluster.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Microsecond, MaxBackoff: 8 * time.Microsecond}),
		decluster.WithSimulatedLatency(100*time.Microsecond),
		decluster.WithHedging(decluster.HedgeConfig{After: 250 * time.Microsecond}),
		decluster.WithBreaker(decluster.BreakerConfig{ErrorThreshold: 4, Cooldown: 10 * time.Millisecond}),
		decluster.WithAdmission(decluster.AdmissionConfig{MaxInFlight: 4, MaxQueue: 32}),
		decluster.WithDrainTimeout(10*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := s.Do(ctx, decluster.ServeQuery{Rect: r, Priority: c % 2})
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			if len(res.Records) != len(healthy.Records) {
				t.Errorf("client %d got %d records, want %d", c, len(res.Records), len(healthy.Records))
			}
		}(c)
	}
	wg.Wait()

	snap, err := s.Close()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if snap.Stats.Completed != 8 {
		t.Errorf("completed %d of 8", snap.Stats.Completed)
	}
	if snap.Stats.HedgesIssued == 0 {
		t.Error("a ×20 straggler provoked no hedges")
	}
	if len(snap.Disks) != f.Disks() {
		t.Errorf("snapshot covers %d disks, want %d", len(snap.Disks), f.Disks())
	}
	if _, err := s.Search(ctx, r); !errors.Is(err, decluster.ErrSchedulerClosed) {
		t.Errorf("post-close query: got %v, want ErrSchedulerClosed", err)
	}
}

func TestFacadeServeOverload(t *testing.T) {
	f, _, r := faultFixture(t)
	s, err := decluster.Serve(f,
		decluster.WithSimulatedLatency(200*time.Microsecond),
		decluster.WithAdmission(decluster.AdmissionConfig{MaxInFlight: 1, MaxQueue: -1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	var sheds, done int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Search(ctx, r)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				done++
			case errors.Is(err, decluster.ErrOverloaded):
				sheds++
				var oe *decluster.OverloadedError
				if !errors.As(err, &oe) {
					t.Errorf("shed lacks typed detail: %v", err)
				}
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if done == 0 || sheds == 0 {
		t.Errorf("want a mix of served and shed, got done=%d sheds=%d", done, sheds)
	}
	if got := s.Stats().Shed(); got != uint64(sheds) {
		t.Errorf("stats count %d shed, clients saw %d", got, sheds)
	}
}

func TestFacadeServeConvenience(t *testing.T) {
	f, _, r := faultFixture(t)
	res, err := decluster.ServeRangeSearch(context.Background(), f, r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decluster.ParallelRangeSearch(context.Background(), f, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(want.Records) {
		t.Errorf("ServeRangeSearch returned %d records, want %d", len(res.Records), len(want.Records))
	}
	if decluster.BreakerOpen.String() != "open" || decluster.BreakerClosed.String() != "closed" {
		t.Error("breaker state names wrong through the facade")
	}
}
