package repair

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/obs"
)

var (
	errShed  = errors.New("shed")
	errQuiet = errors.New("timeout")
	errBad   = errors.New("bad page")
	errBroke = errors.New("disk full")
)

// page returns n records tagged with the donor that supplied them.
func page(donor, n int) []datagen.Record {
	recs := make([]datagen.Record, n)
	for i := range recs {
		recs[i].ID = donor
	}
	return recs
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestCopy drives the shared bucket-copy loop with fake donors and
// destinations, one error class at a time.
func TestCopy(t *testing.T) {
	ctx := context.Background()
	accept := func(context.Context, int, []datagen.Record) error { return nil }

	t.Run("sheds retried until the bucket lands", func(t *testing.T) {
		var mu sync.Mutex
		tries := map[int]int{}
		fetch := func(_ context.Context, b, d int) ([]datagen.Record, error) {
			mu.Lock()
			defer mu.Unlock()
			if tries[b]++; tries[b] <= 3 {
				return nil, Later(errShed)
			}
			return page(d, 40), nil // two pages at the default capacity
		}
		rep, err := Copy(ctx, seq(5), 1, fetch, accept, CopyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := CopyReport{Buckets: 5, Records: 200, Pages: 10, Retries: 15}
		if rep != want {
			t.Fatalf("report %+v, want %+v", rep, want)
		}
	})

	t.Run("all-silent donors trip the fuse after 2 rounds", func(t *testing.T) {
		var calls atomic.Int64
		fetch := func(context.Context, int, int) ([]datagen.Record, error) {
			calls.Add(1)
			return nil, Silent(errQuiet)
		}
		rep, err := Copy(ctx, seq(1), 3, fetch, accept, CopyConfig{Rounds: 8})
		if !errors.Is(err, ErrNoDonor) || !errors.Is(err, fault.ErrUnavailable) {
			t.Fatalf("got %v, want ErrNoDonor and fault.ErrUnavailable", err)
		}
		if got := calls.Load(); got != 2*3 {
			t.Errorf("%d fetches before the fuse, want 2 rounds of 3", got)
		}
		if rep.Buckets != 0 || rep.Retries != 6 {
			t.Errorf("report %+v, want nothing landed and 6 retries", rep)
		}
	})

	t.Run("rounds budget runs out with fault.ErrUnavailable", func(t *testing.T) {
		// Donor 0 is silent, donor 1 answers and refuses: no round is
		// all-silent, so only the budget ends the bucket.
		var calls atomic.Int64
		fetch := func(_ context.Context, _, d int) ([]datagen.Record, error) {
			calls.Add(1)
			if d == 0 {
				return nil, Silent(errQuiet)
			}
			return nil, Later(errShed)
		}
		_, err := Copy(ctx, seq(1), 2, fetch, accept, CopyConfig{Rounds: 5})
		if !errors.Is(err, fault.ErrUnavailable) || errors.Is(err, ErrNoDonor) {
			t.Fatalf("got %v, want fault.ErrUnavailable without ErrNoDonor", err)
		}
		if got := calls.Load(); got != 5*2 {
			t.Errorf("%d fetches, want 5 rounds of 2", got)
		}
	})

	t.Run("a bad-request delivery moves on to the next donor", func(t *testing.T) {
		var landed sync.Map // bucket → donor whose page landed
		fetch := func(_ context.Context, _, d int) ([]datagen.Record, error) { return page(d, 1), nil }
		deliver := func(_ context.Context, b int, recs []datagen.Record) error {
			if recs[0].ID == 0 {
				return Later(errBad) // donor 0 serves stray records
			}
			landed.Store(b, recs[0].ID)
			return nil
		}
		rep, err := Copy(ctx, seq(4), 3, fetch, deliver, CopyConfig{Backoff: shedBackoff, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Buckets != 4 || rep.Retries != 4 {
			t.Fatalf("report %+v, want 4 buckets each retried once", rep)
		}
		for b := range 4 {
			if d, _ := landed.Load(b); d != 1 {
				t.Errorf("bucket %d landed from donor %v, want 1", b, d)
			}
		}
	})

	t.Run("a fatal delivery stops the copy", func(t *testing.T) {
		var calls atomic.Int64
		fetch := func(_ context.Context, _, d int) ([]datagen.Record, error) {
			calls.Add(1)
			return page(d, 1), nil
		}
		deliver := func(_ context.Context, b int, _ []datagen.Record) error {
			if b == 2 {
				return errBroke
			}
			return nil
		}
		rep, err := Copy(ctx, seq(6), 3, fetch, deliver, CopyConfig{Rounds: 3})
		if !errors.Is(err, errBroke) {
			t.Fatalf("got %v, want the delivery's own error", err)
		}
		if rep.Buckets != 2 || rep.Retries != 0 || calls.Load() != 3 {
			t.Errorf("report %+v after %d fetches, want buckets 0 and 1 landed and no other donor asked", rep, calls.Load())
		}
	})

	t.Run("Parallel 4: one failure cancels the rest", func(t *testing.T) {
		const n, bad = 64, 8
		var inFlight, delivered, records atomic.Int64
		fetch := func(ctx context.Context, b, d int) ([]datagen.Record, error) {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			if b == bad {
				return nil, errBroke
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
			}
			return page(d, b%3), nil // bucket 0, 3, … is empty: one page all the same
		}
		deliver := func(_ context.Context, _ int, recs []datagen.Record) error {
			delivered.Add(1)
			records.Add(int64(len(recs)))
			return nil
		}
		sink := obs.NewSink()
		tb, err := NewThrottle(1e9, 0)
		if err != nil {
			t.Fatal(err)
		}
		tb.AttachObserver(sink, "tokens")
		rep, err := Copy(ctx, seq(n), 2, fetch, deliver, CopyConfig{Parallel: 4, Throttle: tb, Rounds: 3, PageCapacity: 1})
		if !errors.Is(err, errBroke) {
			t.Fatalf("got %v, want the failing bucket's error", err)
		}
		if inFlight.Load() != 0 {
			t.Errorf("Copy returned with %d fetches still running", inFlight.Load())
		}
		if rep.Buckets >= n-1 {
			t.Errorf("%d of %d buckets landed: the failure cancelled nothing", rep.Buckets, n)
		}
		if int64(rep.Buckets) != delivered.Load() || int64(rep.Records) != records.Load() {
			t.Errorf("report %+v, but %d deliveries of %d records", rep, delivered.Load(), records.Load())
		}
		if got := sink.Registry().Counter("tokens").Value(); got != uint64(rep.Pages) {
			t.Errorf("throttle charged %d pages, report counts %d", got, rep.Pages)
		}
		if rep.Retries != 0 {
			t.Errorf("%d retries, want 0: a cancelled fetch is not a retry", rep.Retries)
		}
	})

	t.Run("a cancelled context lands nothing and says so", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		fetch := func(context.Context, int, int) ([]datagen.Record, error) { return page(0, 1), nil }
		rep, err := Copy(cctx, seq(3), 1, fetch, accept, CopyConfig{Parallel: 2})
		if !errors.Is(err, context.Canceled) || rep.Buckets != 0 {
			t.Fatalf("report %+v, error %v; want nothing landed and context.Canceled", rep, err)
		}
		if rep, err := Copy(ctx, nil, 1, fetch, accept, CopyConfig{}); err != nil || rep != (CopyReport{}) {
			t.Fatalf("an empty copy returned %+v, %v", rep, err)
		}
	})
}
