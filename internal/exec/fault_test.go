package exec

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/replica"
)

// Satellite: inverted rectangles must be rejected with a descriptive
// error instead of silently iterating a wrong bucket set.
func TestRectOrientationValidated(t *testing.T) {
	f := newLoadedFile(t, 4, 100)
	e, _ := New(f)
	bad := grid.Rect{Lo: grid.Coord{5, 5}, Hi: grid.Coord{2, 8}}
	_, err := e.RangeSearch(context.Background(), bad)
	if err == nil {
		t.Fatal("inverted rect accepted")
	}
	if !strings.Contains(err.Error(), "inverted") || !strings.Contains(err.Error(), "axis 0") {
		t.Errorf("error not descriptive: %v", err)
	}
	// Mismatched corner arities are caught before orientation.
	if _, err := e.RangeSearch(context.Background(), grid.Rect{Lo: grid.Coord{1}, Hi: grid.Coord{2, 3}}); err == nil {
		t.Error("mismatched corner arity accepted")
	}
}

// blockingReader blocks every read until the context is cancelled,
// signalling the first read so the test can cancel mid-scan.
type blockingReader struct {
	started chan struct{}
	once    atomic.Bool
	reads   atomic.Int64
}

func (r *blockingReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	r.reads.Add(1)
	if r.once.CompareAndSwap(false, true) {
		close(r.started)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// Satellite: cancelling mid-scan must return ctx.Err() and terminate
// all workers promptly — siblings must not scan to completion.
func TestCancellationPropagatesPromptly(t *testing.T) {
	f := newLoadedFile(t, 8, 5000) // 256 buckets, all occupied w.h.p.
	br := &blockingReader{started: make(chan struct{})}
	e, err := New(f, WithBucketReader(br))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := e.RangeSearch(ctx, f.Grid().FullRect())
		done <- err
	}()
	<-br.started
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RangeSearch did not terminate promptly after cancellation")
	}
	// Each of the 8 workers was at most one read deep when cancelled;
	// nothing may keep scanning the remaining ~256 buckets.
	if n := br.reads.Load(); n > 8 {
		t.Errorf("%d reads issued after cancellation; workers did not stop promptly", n)
	}
}

// A worker hitting a terminal error must cancel its siblings instead of
// letting them scan to completion.
type failOnceReader struct {
	inner BucketReader
	reads atomic.Int64
}

func (r *failOnceReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if r.reads.Add(1) == 1 {
		return nil, errors.New("media error") // permanent: not transient
	}
	// Subsequent reads take long enough that a full no-cancel scan of
	// hundreds of buckets would trip the test's budget.
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(2 * time.Millisecond):
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

func TestWorkerErrorCancelsSiblings(t *testing.T) {
	f := newLoadedFile(t, 8, 5000)
	fr := &failOnceReader{inner: fileReader{f: f}}
	e, _ := New(f, WithBucketReader(fr))
	start := time.Now()
	_, err := e.RangeSearch(context.Background(), f.Grid().FullRect())
	if err == nil || !strings.Contains(err.Error(), "media error") {
		t.Fatalf("got %v, want the media error", err)
	}
	// 256 buckets × 2ms serially would be ~0.5s; prompt cancellation
	// finishes in a few milliseconds.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("query ran %v after a terminal error; siblings were not cancelled", elapsed)
	}
}

// Without replication, a fail-stop disk makes affected queries return a
// typed unavailability error — never wrong partial results.
func TestFailStopUnreplicatedReturnsUnavailable(t *testing.T) {
	f := newLoadedFile(t, 4, 2000)
	inj, err := fault.New(fault.Config{Seed: 1, FailDisks: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(f, WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.RangeSearch(context.Background(), f.Grid().FullRect())
	if !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	var ue *fault.UnavailableError
	if !errors.As(err, &ue) {
		t.Fatal("error is not a *fault.UnavailableError")
	}
	if len(ue.Buckets) == 0 || len(ue.FailedDisks) != 1 || ue.FailedDisks[0] != 2 {
		t.Fatalf("unavailability details wrong: %+v", ue)
	}
	g := f.Grid()
	method := f.Method()
	for _, b := range ue.Buckets {
		if d := method.DiskOf(g.Delinearize(b, nil)); d != 2 {
			t.Fatalf("bucket %d reported unreachable but lives on healthy disk %d", b, d)
		}
	}
	// A query that avoids the failed disk's buckets still succeeds.
	inj2, _ := fault.New(fault.Config{FailDisks: []int{3}})
	e2, _ := New(f, WithFaults(inj2))
	g2 := f.Grid()
	var safe *grid.Rect
	grid.EachRect(g2.FullRect(), func(c grid.Coord) bool {
		if method.DiskOf(c) != 3 {
			r := g2.MustRect(c.Clone(), c.Clone())
			safe = &r
			return false
		}
		return true
	})
	if safe == nil {
		t.Fatal("no bucket off disk 3")
	}
	res, err := e2.RangeSearch(context.Background(), *safe)
	if err != nil {
		t.Fatalf("query avoiding the failed disk errored: %v", err)
	}
	if !res.Degraded {
		t.Error("result not marked degraded while a disk is down")
	}
}

// Acceptance: with one disk of M failed under chained replication, the
// query completes with exactly the fault-free results, reads nothing
// from the failed disk, and keeps the degraded busiest-disk load within
// 2× of the fault-free load.
func TestFailoverCompletesCorrectly(t *testing.T) {
	f := newLoadedFile(t, 8, 4000)
	rep, err := replica.NewChained(f.Method())
	if err != nil {
		t.Fatal(err)
	}
	q := f.Grid().MustRect(grid.Coord{1, 1}, grid.Coord{12, 13})

	healthyExec, _ := New(f)
	healthy, err := healthyExec.RangeSearch(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	const failedDisk = 3
	inj, _ := fault.New(fault.Config{Seed: 9, FailDisks: []int{failedDisk}})
	e, err := New(f, WithFaults(inj), WithFailover(rep))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RangeSearch(context.Background(), q)
	if err != nil {
		t.Fatalf("failover query errored: %v", err)
	}
	if !res.Degraded {
		t.Error("result not marked degraded")
	}
	if res.Rerouted == 0 {
		t.Error("no buckets rerouted although the failed disk held part of the query")
	}
	if res.BucketsPerDisk[failedDisk] != 0 {
		t.Fatalf("%d buckets read from the failed disk", res.BucketsPerDisk[failedDisk])
	}
	if len(res.Records) != len(healthy.Records) {
		t.Fatalf("degraded run returned %d records, fault-free %d", len(res.Records), len(healthy.Records))
	}
	for i := range res.Records {
		if res.Records[i].ID != healthy.Records[i].ID {
			t.Fatalf("degraded record order diverges at %d", i)
		}
	}
	maxLoad := func(loads []int) int {
		m := 0
		for _, l := range loads {
			if l > m {
				m = l
			}
		}
		return m
	}
	if deg, ok := maxLoad(res.BucketsPerDisk), maxLoad(healthy.BucketsPerDisk); deg > 2*ok {
		t.Errorf("degraded busiest-disk load %d exceeds 2× fault-free %d", deg, ok)
	}
	opt, err := rep.ResponseTimeDegradedSet(q, []int{failedDisk})
	if err != nil {
		t.Fatal(err)
	}
	if deg := maxLoad(res.BucketsPerDisk); deg != opt {
		t.Errorf("degraded busiest-disk load %d, optimum %d", deg, opt)
	}
}

// Both replicas of a bucket failed: failover must surface typed
// unavailability, not partial results.
func TestFailoverBothReplicasDown(t *testing.T) {
	f := newLoadedFile(t, 8, 1000)
	rep, _ := replica.NewChained(f.Method()) // backup = primary+1 mod 8
	inj, _ := fault.New(fault.Config{FailDisks: []int{0, 1}})
	e, _ := New(f, WithFaults(inj), WithFailover(rep))
	_, err := e.RangeSearch(context.Background(), f.Grid().FullRect())
	if !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
}

// Acceptance: injected transient read errors are retried to success
// deterministically under a fixed seed.
func TestTransientRetriesDeterministic(t *testing.T) {
	f := newLoadedFile(t, 4, 2000)
	q := f.Grid().MustRect(grid.Coord{2, 2}, grid.Coord{11, 11})
	plain, _ := New(f)
	want, err := plain.RangeSearch(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	run := func() *Result {
		t.Helper()
		inj, err := fault.New(fault.Config{Seed: 77, TransientProb: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(f, WithFaults(inj), WithRetry(RetryPolicy{MaxAttempts: 10}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RangeSearch(context.Background(), q)
		if err != nil {
			t.Fatalf("retried query errored: %v", err)
		}
		return res
	}
	first := run()
	if first.Retries == 0 {
		t.Fatal("no retries recorded at 40% transient probability")
	}
	if len(first.Records) != len(want.Records) {
		t.Fatalf("faulty run returned %d records, fault-free %d", len(first.Records), len(want.Records))
	}
	for i := range first.Records {
		if first.Records[i].ID != want.Records[i].ID {
			t.Fatalf("record order diverges at %d", i)
		}
	}
	second := run()
	if second.Retries != first.Retries {
		t.Fatalf("retry counts differ across identical seeded runs: %d vs %d", first.Retries, second.Retries)
	}
}

// Fault-injection attempt counters are scoped per query, so a query's
// injected fault sequence (and hence its retry count) is independent of
// whatever queries ran before it on the same Executor.
func TestTransientFaultsIndependentOfQueryHistory(t *testing.T) {
	f := newLoadedFile(t, 4, 2000)
	ctx := context.Background()
	qA := f.Grid().MustRect(grid.Coord{0, 0}, grid.Coord{7, 7})
	qB := f.Grid().MustRect(grid.Coord{4, 4}, grid.Coord{11, 11}) // overlaps qA's buckets
	newExec := func() *Executor {
		t.Helper()
		inj, err := fault.New(fault.Config{Seed: 77, TransientProb: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(f, WithFaults(inj), WithRetry(RetryPolicy{MaxAttempts: 10}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	want, err := newExec().RangeSearch(ctx, qB)
	if err != nil {
		t.Fatal(err)
	}
	if want.Retries == 0 {
		t.Fatal("no retries recorded at 40% transient probability")
	}
	warmed := newExec()
	if _, err := warmed.RangeSearch(ctx, qA); err != nil {
		t.Fatal(err)
	}
	got, err := warmed.RangeSearch(ctx, qB)
	if err != nil {
		t.Fatal(err)
	}
	if got.Retries != want.Retries {
		t.Fatalf("query history changed the fault sequence: %d retries after a prior query, %d on a fresh executor",
			got.Retries, want.Retries)
	}
}

// Exhausted retries surface the transient error.
func TestTransientRetriesExhausted(t *testing.T) {
	f := newLoadedFile(t, 4, 2000)
	inj, _ := fault.New(fault.Config{Seed: 5, TransientProb: 0.9})
	e, _ := New(f, WithFaults(inj), WithRetry(RetryPolicy{MaxAttempts: 1}))
	_, err := e.RangeSearch(context.Background(), f.Grid().FullRect())
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("got %v, want a transient error after exhausted retries", err)
	}
}

// The per-query deadline bounds wall-clock time.
func TestQueryDeadline(t *testing.T) {
	f := newLoadedFile(t, 4, 1000)
	br := &blockingReader{started: make(chan struct{})}
	e, err := New(f, WithBucketReader(br), WithDeadline(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = e.RangeSearch(context.Background(), f.Grid().FullRect())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("deadline did not bound the query promptly")
	}
}

// Retry backoff must abort immediately when the context dies mid-wait.
func TestRetryBackoffHonoursCancellation(t *testing.T) {
	f := newLoadedFile(t, 4, 1000)
	inj, _ := fault.New(fault.Config{Seed: 5, TransientProb: 0.9})
	e, _ := New(f, WithFaults(inj),
		WithRetry(RetryPolicy{MaxAttempts: 1000, BaseBackoff: time.Hour, MaxBackoff: time.Hour}),
		WithDeadline(20*time.Millisecond))
	start := time.Now()
	_, err := e.RangeSearch(context.Background(), f.Grid().FullRect())
	if err == nil {
		t.Fatal("expected an error")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("hour-long backoff was not interrupted by the deadline")
	}
}

// Option validation.
func TestFaultOptionValidation(t *testing.T) {
	f := newLoadedFile(t, 4, 10)
	if _, err := New(f, WithRetry(RetryPolicy{MaxAttempts: -1})); err == nil {
		t.Error("negative retry attempts accepted")
	}
	if _, err := New(f, WithRetry(RetryPolicy{BaseBackoff: -time.Second})); err == nil {
		t.Error("negative backoff accepted")
	}
	if _, err := New(f, WithDeadline(-time.Second)); err == nil {
		t.Error("negative deadline accepted")
	}
	// A replica over a different configuration must be rejected.
	other := grid.MustNew(8, 8)
	om, _ := alloc.NewDM(other, 4)
	orep, _ := replica.NewChained(om)
	if _, err := New(f, WithFailover(orep)); err == nil {
		t.Error("mismatched failover replica accepted")
	}
	// Same grid shape and disk count but a different allocation method:
	// shape checks pass, so the per-bucket primary table must catch it.
	dm, _ := alloc.NewDM(f.Grid(), f.Disks()) // file uses HCAM
	dmrep, _ := replica.NewChained(dm)
	if _, err := New(f, WithFailover(dmrep)); err == nil {
		t.Error("failover replica over a different allocation method accepted")
	}
	// The matching replica stays accepted.
	rep, _ := replica.NewChained(f.Method())
	if _, err := New(f, WithFailover(rep)); err != nil {
		t.Errorf("matching failover replica rejected: %v", err)
	}
}

// DefaultRetry is sane.
func TestDefaultRetry(t *testing.T) {
	p := DefaultRetry()
	if p.MaxAttempts < 2 || p.BaseBackoff <= 0 || p.MaxBackoff < p.BaseBackoff {
		t.Errorf("DefaultRetry %+v malformed", p)
	}
}

// TestRetryPolicyDelay pins the one backoff schedule under the four
// parameterisations it replaced hand-rolled loops for.
func TestRetryPolicyDelay(t *testing.T) {
	const us, ms = time.Microsecond, time.Millisecond
	cases := []struct {
		name string
		p    RetryPolicy
		want []time.Duration // Delay(1), Delay(2), …
	}{
		{"bucket reads (DefaultRetry)", DefaultRetry(),
			[]time.Duration{1 * ms, 2 * ms, 4 * ms, 8 * ms, 8 * ms}},
		{"router rotation (a RouterConfig.Retry)", RetryPolicy{BaseBackoff: 3 * ms, MaxBackoff: 10 * ms},
			[]time.Duration{3 * ms, 6 * ms, 10 * ms, 10 * ms}},
		{"rebuild reads shed by admission", RetryPolicy{BaseBackoff: 200 * us, MaxBackoff: 3200 * us},
			[]time.Duration{200 * us, 400 * us, 800 * us, 1600 * us, 3200 * us, 3200 * us}},
		{"donor rounds", RetryPolicy{BaseBackoff: ms, MaxBackoff: 50 * ms},
			[]time.Duration{1 * ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 50 * ms, 50 * ms}},
		{"uncapped", RetryPolicy{BaseBackoff: ms},
			[]time.Duration{1 * ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms}},
		{"no sleeping", RetryPolicy{MaxBackoff: 8 * ms}, []time.Duration{0, 0, 0}},
		{"base above the cap", RetryPolicy{BaseBackoff: 10 * ms, MaxBackoff: 8 * ms}, []time.Duration{8 * ms, 8 * ms}},
	}
	for _, tc := range cases {
		for i, want := range tc.want {
			if got := tc.p.Delay(i + 1); got != want {
				t.Errorf("%s: Delay(%d) = %v, want %v", tc.name, i+1, got, want)
			}
		}
	}
	// Far past the point a doubling would overflow, an uncapped schedule
	// saturates instead of wrapping to a negative (that is, no) sleep.
	if got := (RetryPolicy{BaseBackoff: ms}).Delay(500); got <= 0 {
		t.Errorf("uncapped Delay(500) = %v", got)
	}
}

// A context that is already over is reported without sleeping — under
// an hour-long schedule this test would otherwise time out.
func TestRetryPolicyWaitCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []RetryPolicy{{BaseBackoff: time.Hour}, {}} {
		if err := p.Wait(ctx, 3); !errors.Is(err, context.Canceled) {
			t.Errorf("%+v: Wait on a cancelled context = %v", p, err)
		}
	}
	if err := (RetryPolicy{}).Wait(context.Background(), 1); err != nil {
		t.Errorf("zero policy Wait = %v", err)
	}
}
