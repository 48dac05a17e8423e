package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/hedge"
	"decluster/internal/obs"
	"decluster/internal/replica"
)

// backgroundPriority mirrors repair.BackgroundPriority, which cannot be
// imported here (repair depends on serve). The cross-package equality —
// and the 0 > MigrationPriority > BackgroundPriority ladder itself — is
// pinned by TestMigrationPriorityBetweenTiers in the repair package.
const backgroundPriority = -1000

func newLoadedFile(t testing.TB, disks, records int) *gridfile.File {
	t.Helper()
	g := grid.MustNew(16, 16)
	m, err := alloc.NewHCAM(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	f, err := gridfile.New(gridfile.Config{Method: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(datagen.Uniform{K: 2, Seed: 5}.Generate(records)); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	f := newLoadedFile(t, 4, 200)
	if _, err := New(nil); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := New(f, WithAdmission(AdmissionConfig{MaxInFlight: -1})); err == nil {
		t.Error("negative MaxInFlight accepted")
	}
	if _, err := New(f, WithHedging(HedgeConfig{After: -time.Millisecond})); err == nil {
		t.Error("negative hedge delay accepted")
	}
	if _, err := New(f, WithHedging(HedgeConfig{After: time.Millisecond})); err == nil {
		t.Error("hedging without failover accepted")
	}
	if _, err := New(f, WithDrainTimeout(-time.Second)); err == nil {
		t.Error("negative drain timeout accepted")
	}
	if _, err := New(f, WithBreaker(BreakerConfig{Alpha: 2})); err == nil {
		t.Error("EWMA alpha > 1 accepted")
	}
	if _, err := New(f, WithBaseLatency(5*time.Microsecond)); err != nil {
		t.Errorf("valid base latency rejected: %v", err)
	}
}

// gatedReader blocks reads until released, so tests can hold queries
// in flight deterministically.
type gatedReader struct {
	inner   exec.BucketReader
	gate    chan struct{}
	started chan struct{}
	once    sync.Once
}

func (r *gatedReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	r.once.Do(func() { close(r.started) })
	select {
	case <-r.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

func TestAdmissionFastReject(t *testing.T) {
	f := newLoadedFile(t, 4, 500)
	gr := &gatedReader{inner: exec.NewFileReader(f), gate: make(chan struct{}), started: make(chan struct{})}
	s, err := New(f,
		WithBucketReader(gr),
		WithAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: -1}))
	if err != nil {
		t.Fatal(err)
	}
	q := f.Grid().FullRect()
	done := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), q)
		done <- err
	}()
	<-gr.started

	// One query holds the only slot, the queue is disabled: the next
	// arrival must be fast-rejected with the typed overload error.
	_, err = s.Search(context.Background(), q)
	var oe *OverloadedError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated scheduler returned %v, want *OverloadedError", err)
	}
	if oe.Evicted {
		t.Error("fast reject misreported as eviction")
	}
	close(gr.gate)
	if err := <-done; err != nil {
		t.Fatalf("held query failed: %v", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Completed != 1 || st.Admitted != 1 {
		t.Errorf("stats = %+v, want 1 rejected / 1 admitted / 1 completed", st)
	}
}

func TestPriorityEvictionAndOrder(t *testing.T) {
	f := newLoadedFile(t, 4, 500)
	gr := &gatedReader{inner: exec.NewFileReader(f), gate: make(chan struct{}), started: make(chan struct{})}
	s, err := New(f,
		WithBucketReader(gr),
		WithAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1}))
	if err != nil {
		t.Fatal(err)
	}
	q := f.Grid().FullRect()
	hold := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), q)
		hold <- err
	}()
	<-gr.started

	// Fill the one queue slot with a low-priority query.
	low := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Query{Rect: q, Priority: 1})
		low <- err
	}()
	// Wait until it is actually queued.
	for {
		s.mu.Lock()
		n := len(s.waiters)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// An equal-priority arrival is rejected, not evicting.
	if _, err := s.Do(context.Background(), Query{Rect: q, Priority: 1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("equal priority arrival got %v, want overload", err)
	}
	// A higher-priority arrival evicts the queued low-priority query.
	high := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Query{Rect: q, Priority: 9})
		high <- err
	}()
	evictErr := <-low
	var oe *OverloadedError
	if !errors.As(evictErr, &oe) || !oe.Evicted {
		t.Fatalf("evicted waiter got %v, want eviction overload error", evictErr)
	}
	close(gr.gate)
	if err := <-hold; err != nil {
		t.Fatalf("held query failed: %v", err)
	}
	if err := <-high; err != nil {
		t.Fatalf("high-priority query failed: %v", err)
	}
	st := s.Stats()
	if st.Evicted != 1 || st.Rejected != 1 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 1 evicted / 1 rejected / 2 completed", st)
	}
}

// TestMigrationPriorityTier pins the three-tier admission ladder:
// foreground (0) over migration dual-reads (MigrationPriority) over
// background repair — first as an ordering invariant on the constants,
// then behaviorally: each tier's arrival evicts a queued read from the
// tier below it.
func TestMigrationPriorityTier(t *testing.T) {
	if MigrationPriority >= 0 {
		t.Fatalf("MigrationPriority %d must rank below every foreground query (0 and up)", MigrationPriority)
	}
	if MigrationPriority <= backgroundPriority {
		t.Fatalf("MigrationPriority %d must rank above background repair %d",
			MigrationPriority, backgroundPriority)
	}

	f := newLoadedFile(t, 4, 500)
	gr := &gatedReader{inner: exec.NewFileReader(f), gate: make(chan struct{}), started: make(chan struct{})}
	s, err := New(f,
		WithBucketReader(gr),
		WithAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1}))
	if err != nil {
		t.Fatal(err)
	}
	q := f.Grid().FullRect()
	hold := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), q)
		hold <- err
	}()
	<-gr.started

	waitQueued := func() {
		for {
			s.mu.Lock()
			n := len(s.waiters)
			s.mu.Unlock()
			if n == 1 {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A repair read waits in the queue; a migration dual-read arrival
	// evicts it.
	repairDone := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Query{Rect: q, Priority: backgroundPriority})
		repairDone <- err
	}()
	waitQueued()
	migDone := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Query{Rect: q, Priority: MigrationPriority})
		migDone <- err
	}()
	var oe *OverloadedError
	if err := <-repairDone; !errors.As(err, &oe) || !oe.Evicted {
		t.Fatalf("repair read got %v, want eviction by migration read", err)
	}

	waitQueued()

	// And a foreground arrival evicts the queued migration read in turn.
	fgDone := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Query{Rect: q, Priority: 0})
		fgDone <- err
	}()
	if err := <-migDone; !errors.As(err, &oe) || !oe.Evicted {
		t.Fatalf("migration read got %v, want eviction by foreground read", err)
	}

	close(gr.gate)
	if err := <-hold; err != nil {
		t.Fatalf("held query failed: %v", err)
	}
	if err := <-fgDone; err != nil {
		t.Fatalf("foreground query failed: %v", err)
	}
	st := s.Stats()
	if st.Evicted != 2 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 2 evicted / 2 completed", st)
	}
}

func TestAbandonedWhileQueued(t *testing.T) {
	f := newLoadedFile(t, 4, 500)
	gr := &gatedReader{inner: exec.NewFileReader(f), gate: make(chan struct{}), started: make(chan struct{})}
	s, err := New(f,
		WithBucketReader(gr),
		WithAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4}))
	if err != nil {
		t.Fatal(err)
	}
	q := f.Grid().FullRect()
	hold := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), q)
		hold <- err
	}()
	<-gr.started
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := s.Search(ctx, q)
		queued <- err
	}()
	for {
		s.mu.Lock()
		n := len(s.waiters)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter got %v, want context.Canceled", err)
	}
	close(gr.gate)
	<-hold
	if st := s.Stats(); st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
}

// sickReader fails every read on one disk with a transient error while
// the switch is on.
type sickReader struct {
	inner exec.BucketReader
	disk  int
	sick  atomic.Bool
}

func (r *sickReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if disk == r.disk && r.sick.Load() {
		return nil, &fault.TransientError{Disk: disk, Bucket: bucket, Attempt: 1}
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// A disk that keeps erroring must trip its breaker, after which queries
// are proactively routed around it — and once it recovers, half-open
// probes must close the breaker and return the disk to service.
func TestBreakerTripsRoutesAroundAndRecovers(t *testing.T) {
	f := newLoadedFile(t, 4, 1000)
	rep, err := replica.NewChained(f.Method())
	if err != nil {
		t.Fatal(err)
	}
	const sick = 2
	sr := &sickReader{inner: exec.NewFileReader(f), disk: sick}
	sr.sick.Store(true)
	s, err := New(f,
		WithBucketReader(sr),
		WithFailover(rep),
		WithRetry(exec.RetryPolicy{MaxAttempts: 4}),
		WithBreaker(BreakerConfig{ErrorThreshold: 3, Cooldown: 30 * time.Millisecond, HalfOpenProbes: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := f.Grid().FullRect()

	// Queries fail until the run of transient errors opens the breaker;
	// then routing avoids the sick disk and queries succeed.
	deadline := time.Now().Add(5 * time.Second)
	var res *exec.Result
	for {
		res, err = s.Search(ctx, q)
		if err == nil {
			break
		}
		if !errors.Is(err, fault.ErrTransient) {
			t.Fatalf("unexpected failure class: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened")
		}
	}
	if res.BucketsPerDisk[sick] != 0 {
		t.Errorf("open breaker: sick disk still served %d buckets", res.BucketsPerDisk[sick])
	}
	if got := s.Stats().BreakerTrips; got == 0 {
		t.Error("no breaker trips recorded")
	}
	var open bool
	for _, d := range s.HealthSnapshot() {
		if d.Disk == sick && d.State == BreakerOpen {
			open = true
		}
	}
	if !open {
		t.Error("sick disk's breaker not open in snapshot")
	}

	// Recovery: heal the disk, wait out the cooldown, and drive queries
	// until half-open probes close the breaker and routing uses the
	// disk again.
	sr.sick.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		time.Sleep(10 * time.Millisecond)
		res, err = s.Search(ctx, q)
		if err != nil {
			t.Fatalf("query failed after recovery: %v", err)
		}
		if res.BucketsPerDisk[sick] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered disk never returned to service")
		}
	}
	var state BreakerState = -1
	for _, d := range s.HealthSnapshot() {
		if d.Disk == sick {
			state = d.State
		}
	}
	if state != BreakerClosed && state != BreakerHalfOpen {
		t.Errorf("recovered disk state = %v", state)
	}
}

// Hedging must beat a straggler disk: a query whose primary read would
// take straggler-time completes near healthy-time, served by the
// backup replica, with no duplicate or missing records.
func TestHedgingBeatsStraggler(t *testing.T) {
	f := newLoadedFile(t, 4, 1000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 3, Stragglers: map[int]float64{1: 50}})
	if err != nil {
		t.Fatal(err)
	}
	const base = 500 * time.Microsecond
	s, err := New(f,
		WithFaults(inj),
		WithFailover(rep),
		WithBaseLatency(base),
		WithHedging(HedgeConfig{After: 2 * base}))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := exec.New(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := f.Grid().MustRect(grid.Coord{0, 0}, grid.Coord{7, 7})
	want, err := plain.RangeSearch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got, err := s.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(got.Records) != len(want.Records) {
		t.Fatalf("hedged run returned %d records, want %d (dup or loss under speculation)",
			len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if got.Records[i].ID != want.Records[i].ID {
			t.Fatalf("record %d differs under hedging", i)
		}
	}
	st := s.Stats()
	if st.HedgesIssued == 0 || st.HedgesWon == 0 {
		t.Errorf("hedges issued/won = %d/%d, want both > 0", st.HedgesIssued, st.HedgesWon)
	}
	// Un-hedged, the straggler serializes ~16 buckets at 50×base each
	// (~400ms). Hedged, the whole query should finish far below that.
	if limit := 40 * 50 * base / 10; elapsed > limit {
		t.Errorf("hedged query took %v, want well under straggler time (limit %v)", elapsed, limit)
	}
}

// Hedging must not amplify saturation: once every replica's smoothed
// read latency exceeds the hedge delay, a backup read cannot beat the
// straggling primary — it only deepens the queues that made it slow — so
// the scheduler stops issuing hedges. The disk-level twin of the
// router's TestRouterHedgeSuppressedUnderSaturation.
func TestHedgeSuppressedUnderSaturation(t *testing.T) {
	f := newLoadedFile(t, 4, 1000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const base = 2 * time.Millisecond
	s, err := New(f,
		WithFailover(rep),
		WithBaseLatency(base), // every disk serves at 2ms, past the 1.5ms hedge delay
		WithHedging(HedgeConfig{After: 3 * base / 4}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := f.Grid().MustRect(grid.Coord{0, 0}, grid.Coord{7, 7})
	// First search: EWMAs start cold at zero, so hedging is still allowed
	// — and every disk it touches records ~2ms samples.
	want, err := s.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	warm := s.Stats().HedgesIssued
	got, err := s.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("suppressed run returned %d records, want %d", len(got.Records), len(want.Records))
	}
	if issued := s.Stats().HedgesIssued - warm; issued != 0 {
		t.Fatalf("%d hedge reads issued although every replica is slower than the hedge delay", issued)
	}
}

// failFirstReader fails the first read it serves with a transient error
// and remembers that read's disk.
type failFirstReader struct {
	inner  exec.BucketReader
	failed atomic.Bool
	disk   atomic.Int64
}

func (r *failFirstReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if r.failed.CompareAndSwap(false, true) {
		r.disk.Store(int64(disk))
		return nil, fmt.Errorf("first read: %w", fault.ErrTransient)
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// A read's latency is its own: a read chains its start to the end of the
// disk's previous read, but an attempt that failed breaks the chain, so
// the executor's backoff before the retry is never booked as read time —
// not in the disk's EWMA, not in the leg histogram, not in the
// executor's per-disk latency.
func TestReadLatencyExcludesRetryBackoff(t *testing.T) {
	const backoff = 30 * time.Millisecond
	f := newLoadedFile(t, 4, 1000)
	bucket := -1
	for b := 0; b < f.Grid().Buckets() && bucket < 0; b++ {
		if f.BucketLen(b) > 0 {
			bucket = b
		}
	}
	if bucket < 0 {
		t.Fatal("fixture has no occupied bucket")
	}
	fr := &failFirstReader{inner: exec.NewFileReader(f)}
	sink := obs.NewSink()
	s, err := New(f,
		WithBucketReader(fr),
		WithRetry(exec.RetryPolicy{MaxAttempts: 2, BaseBackoff: backoff}),
		WithObserver(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := f.Grid().Delinearize(bucket, nil)
	res, err := s.Search(context.Background(), f.Grid().MustRect(c, c))
	if err != nil {
		t.Fatal(err)
	}
	if !fr.failed.Load() || res.Retries != 1 {
		t.Fatalf("failed first read %v, retries %d: want the one retried read", fr.failed.Load(), res.Retries)
	}
	d := int(fr.disk.Load())
	reg := sink.Registry()
	for _, lat := range []struct {
		name string
		d    time.Duration
	}{
		{"disk EWMA", s.health.EWMALatency(d)},
		{"serve.read.leg.latency max", reg.Histogram("serve.read.leg.latency").Max()},
		{"exec.disk.read.latency max", reg.HistogramFamily("exec.disk.read.latency", "disk", f.Disks()).At(d).Max()},
	} {
		if lat.d >= backoff {
			t.Errorf("%s = %v after a read retried once: the %v backoff was booked as read time", lat.name, lat.d, backoff)
		}
	}
}

// injectedReader is the slice of the executor's fault layer a
// servedReader unit test needs: reads of a fail-stop disk error, the
// rest reach the file.
type injectedReader struct {
	inner exec.BucketReader
	inj   *fault.Injector
}

func (r injectedReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if err := r.inj.CheckRead(disk, bucket, 1); err != nil {
		return nil, err
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// An open breaker closes the timed hedge onto its disk, not the disk
// itself: when a read's primary went fail-stop after routing and the
// only other replica's breaker happens to be open, the read must still
// fail over to that replica — it is sick-but-readable — instead of
// failing the query (the flake TestDifferentialSoak hit 1–4 times per
// 1,200 runs before the fix).
func TestOpenBreakerStillBacksUpFailedPrimary(t *testing.T) {
	f := newLoadedFile(t, 4, 1000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(f,
		WithFaults(inj),
		WithFailover(rep),
		WithBreaker(BreakerConfig{ErrorThreshold: 1, Cooldown: time.Hour}),
		WithHedging(HedgeConfig{After: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	bucket := -1
	for b := 0; b < f.Grid().Buckets(); b++ {
		if f.BucketLen(b) > 0 {
			bucket = b
			break
		}
	}
	if bucket < 0 {
		t.Fatal("fixture has no occupied bucket")
	}
	a, b := rep.PrimaryOf(bucket), rep.BackupOf(bucket)
	if alt := s.altDisk(a, bucket); alt != b || !s.hedgeWorth(a, b) {
		t.Fatalf("healthy: altDisk = %d, gate %v; want %d, and the gate lets a timed hedge go", alt, s.hedgeWorth(a, b), b)
	}

	s.health.Observe(b, 0, fault.ErrTransient) // trips b's breaker
	if s.health.Allow(b) {
		t.Fatal("breaker of the backup disk did not open")
	}
	inj.FailDisk(a) // after "routing": the read below still targets a

	if alt := s.altDisk(a, bucket); alt != b || s.hedgeWorth(a, b) {
		t.Errorf("backup breaker open: altDisk = %d, gate %v; want %d and a declining gate: failover kept, timed hedge closed", alt, s.hedgeWorth(a, b), b)
	}
	r := s.newServedReader(injectedReader{inner: exec.NewFileReader(f), inj: inj})
	recs, err := r.ReadBucket(context.Background(), a, bucket)
	if err != nil {
		t.Fatalf("read with a fail-stop primary and a breaker-open backup failed: %v", err)
	}
	if len(recs) != f.BucketLen(bucket) {
		t.Errorf("failover returned %d records, want %d", len(recs), f.BucketLen(bucket))
	}
	if st := s.Stats(); st.HedgesIssued != 1 || st.HedgesWon != 1 {
		t.Errorf("hedges issued/won = %d/%d, want exactly the one failover leg", st.HedgesIssued, st.HedgesWon)
	}

	// A fail-stop backup is no backup at all.
	inj.FailDisk(b)
	if alt := s.altDisk(a, bucket); alt != -1 {
		t.Errorf("fail-stop backup offered as hedge target %d", alt)
	}
}

// slowDiskReader delays every read of one disk until its context ends
// or delay passes.
type slowDiskReader struct {
	inner exec.BucketReader
	disk  int
	delay time.Duration
}

func (r slowDiskReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if disk == r.disk {
		t := time.NewTimer(r.delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// The hedge gate is asked when a straggling read's race comes due: with
// the backup healthy the read hedges to it; with the backup's breaker
// open by then the gate declines, and the read waits out its primary
// with no backup read issued and no hedge counted.
func TestHedgeGateAskedWhenTheRaceComesDue(t *testing.T) {
	// The gap between the delay and the straggler's answer outlasts a
	// late watchdog timer on a loaded host.
	const after, straggle = 2 * time.Millisecond, 100 * time.Millisecond
	f := newLoadedFile(t, 4, 1000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(f,
		WithFailover(rep),
		WithBreaker(BreakerConfig{ErrorThreshold: 1, Cooldown: time.Hour}),
		WithHedging(HedgeConfig{After: after}))
	if err != nil {
		t.Fatal(err)
	}
	bucket := -1
	for b := 0; b < f.Grid().Buckets() && bucket < 0; b++ {
		if f.BucketLen(b) > 0 {
			bucket = b
		}
	}
	a, b := rep.PrimaryOf(bucket), rep.BackupOf(bucket)
	read := func() time.Duration {
		t.Helper()
		r := s.newServedReader(slowDiskReader{inner: exec.NewFileReader(f), disk: a, delay: straggle})
		start := time.Now()
		recs, err := r.ReadBucket(context.Background(), a, bucket)
		took := time.Since(start)
		r.EndRun(a)
		if err != nil || len(recs) != f.BucketLen(bucket) {
			t.Fatalf("read returned %d records, err %v; want %d", len(recs), err, f.BucketLen(bucket))
		}
		return took
	}

	read()
	if st := s.Stats(); st.HedgesIssued != 1 || st.HedgesWon != 1 {
		t.Fatalf("straggler with a healthy backup: hedges issued/won %d/%d, want 1/1", st.HedgesIssued, st.HedgesWon)
	}
	s.health.Observe(b, 0, fault.ErrTransient) // trips b's breaker
	if took := read(); took < straggle {
		t.Fatalf("the declined read returned in %v, before its %v primary", took, straggle)
	}
	if st := s.Stats(); st.HedgesIssued != 1 || st.HedgesWon != 1 {
		t.Fatalf("straggler with an open backup: hedges issued/won %d/%d, want still 1/1", st.HedgesIssued, st.HedgesWon)
	}
}

// The latency rule of the breaker: a slow EWMA trips it only once
// MinSamples reads have been seen, and the open breaker recovers through
// cooldown → half-open → HalfOpenProbes fast reads like an error trip.
func TestBreakerLatencyTrip(t *testing.T) {
	const slow, fast = 10 * time.Millisecond, 100 * time.Microsecond
	h, err := NewBreakers(BreakerConfig{
		ErrorThreshold:   -1,
		LatencyThreshold: time.Millisecond,
		MinSamples:       4,
		Cooldown:         time.Millisecond,
		HalfOpenProbes:   2,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The raw state, without the cooldown tick every accessor applies: a
	// descheduled test must not read a just-opened breaker as half-open.
	state := func() BreakerState {
		d := h.disks[1]
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.state
	}
	for i := 1; i < 4; i++ {
		h.Observe(1, slow, nil)
		if state() != BreakerClosed {
			t.Fatalf("tripped on sample %d, below MinSamples 4", i)
		}
	}
	// Errors are not latency samples: they neither count toward
	// MinSamples nor (threshold disabled) trip anything.
	h.Observe(1, slow, fault.ErrTransient)
	if state() != BreakerClosed {
		t.Fatal("an errored read counted as a latency sample")
	}
	h.Observe(1, slow, nil)
	if state() != BreakerOpen || h.Trips() != 1 {
		t.Fatalf("at MinSamples with EWMA %v over the 1ms threshold: state %v, trips %d", h.EWMALatency(1), state(), h.Trips())
	}

	time.Sleep(2 * time.Millisecond) // the cooldown
	if !h.Allow(1) || state() != BreakerHalfOpen {
		t.Fatalf("after the cooldown: state %v, want half-open and allowed", state())
	}
	h.Observe(1, fast, nil)
	if state() != BreakerHalfOpen {
		t.Fatalf("re-closed after 1 of 2 probes")
	}
	h.Observe(1, fast, nil)
	if state() != BreakerClosed || h.EWMALatency(1) != 0 {
		t.Fatalf("after 2 fast probes: state %v, EWMA %v; want closed with the sick-era latency forgotten", state(), h.EWMALatency(1))
	}
	// Judged on fresh samples: fast reads never trip, however many.
	for i := 0; i < 8; i++ {
		h.Observe(1, fast, nil)
	}
	if state() != BreakerClosed || h.Trips() != 1 {
		t.Errorf("fast disk tripped again: state %v, trips %d", state(), h.Trips())
	}
}

// A hedged read whose legs both failed reports the transient error,
// whichever leg drew it: the executor retries only that class, and the
// retry hedges again.
func TestDoublyFailedReadPrefersTransient(t *testing.T) {
	failStop := fmt.Errorf("d1: %w", fault.ErrDiskFailed)
	transient := fmt.Errorf("d3: %w", fault.ErrTransient)
	for _, tc := range []struct{ primary, backup, want error }{
		{failStop, transient, transient},
		{transient, failStop, transient},
		{failStop, fault.ErrDiskFailed, failStop},
	} {
		leg := func(_ context.Context, d int, _ bool) ([]datagen.Record, error) {
			if d == 1 {
				return nil, tc.primary
			}
			return nil, tc.backup
		}
		var r hedge.Racer[[]datagen.Record]
		_, _, _, err := r.Race(context.Background(), hedge.Now(), time.Hour, 1, 3, leg, preferTransient)
		r.Release()
		if err != tc.want {
			t.Errorf("primary %v, backup %v: reported %v, want %v", tc.primary, tc.backup, err, tc.want)
		}
	}
}

func TestCloseDrainsAndStopsAdmissions(t *testing.T) {
	f := newLoadedFile(t, 4, 500)
	gr := &gatedReader{inner: exec.NewFileReader(f), gate: make(chan struct{}), started: make(chan struct{})}
	s, err := New(f,
		WithBucketReader(gr),
		WithAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4}),
		WithDrainTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	q := f.Grid().FullRect()
	inflight := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), q)
		inflight <- err
	}()
	<-gr.started
	queued := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), q)
		queued <- err
	}()
	for {
		s.mu.Lock()
		n := len(s.waiters)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	var snap *Snapshot
	var closeErr error
	go func() {
		snap, closeErr = s.Close()
		close(closed)
	}()
	// The queued query is shed with ErrClosed; the in-flight one is
	// allowed to finish once the gate opens.
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued query during drain got %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned before the in-flight query finished")
	case <-time.After(20 * time.Millisecond):
	}
	close(gr.gate)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight query failed during drain: %v", err)
	}
	<-closed
	if closeErr != nil {
		t.Fatalf("Close = %v", closeErr)
	}
	if snap == nil || len(snap.Disks) != 4 || snap.Stats.Completed != 1 {
		t.Errorf("drain snapshot = %+v", snap)
	}
	// After close: no admissions, and a second Close reports ErrClosed.
	if _, err := s.Search(context.Background(), q); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close Search got %v, want ErrClosed", err)
	}
	if _, err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close got %v, want ErrClosed", err)
	}
}

func TestDrainDeadlineExceeded(t *testing.T) {
	f := newLoadedFile(t, 4, 500)
	gr := &gatedReader{inner: exec.NewFileReader(f), gate: make(chan struct{}), started: make(chan struct{})}
	s, err := New(f,
		WithBucketReader(gr),
		WithAdmission(AdmissionConfig{MaxInFlight: 1}),
		WithDrainTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), f.Grid().FullRect())
		done <- err
	}()
	<-gr.started
	snap, err := s.Close()
	if err == nil {
		t.Fatal("Close met its deadline with a stuck query in flight")
	}
	if snap == nil {
		t.Fatal("overrun Close returned no snapshot")
	}
	close(gr.gate)
	<-done
}

// Satellite: randomized differential soak — scheduler results under
// concurrent load, injected faults, mid-run fail/recover flips, and
// hedging must equal the fault-free executor's results bucket-for-
// bucket: speculation must introduce no duplicate and no missing
// records.
func TestDifferentialSoak(t *testing.T) {
	const (
		disks   = 4
		clients = 8
		perCli  = 12
	)
	f := newLoadedFile(t, disks, 3000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{
		Seed:          17,
		TransientProb: 0.15,
		Stragglers:    map[int]float64{3: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(f,
		WithFaults(inj),
		WithFailover(rep),
		WithRetry(exec.RetryPolicy{MaxAttempts: 10, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}),
		WithBaseLatency(100*time.Microsecond),
		WithHedging(HedgeConfig{After: 250 * time.Microsecond}),
		WithBreaker(BreakerConfig{ErrorThreshold: 8, Cooldown: 10 * time.Millisecond}),
		WithAdmission(AdmissionConfig{MaxInFlight: clients, MaxQueue: clients * perCli}))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := exec.New(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g := f.Grid()

	// Pre-generate each client's query mix and the fault-free answers.
	rng := rand.New(rand.NewSource(99))
	queries := make([]grid.Rect, clients*perCli)
	want := make([]*exec.Result, len(queries))
	for i := range queries {
		w, h := 1+rng.Intn(8), 1+rng.Intn(8)
		x, y := rng.Intn(g.Dim(0)-w+1), rng.Intn(g.Dim(1)-h+1)
		queries[i] = g.MustRect(grid.Coord{x, y}, grid.Coord{x + w - 1, y + h - 1})
		if want[i], err = plain.RangeSearch(ctx, queries[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Chaos driver: flip a disk failed/recovered while clients run.
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		failed := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				if failed {
					inj.FlipDisks(nil, []int{1})
				}
				return
			case <-time.After(5 * time.Millisecond):
			}
			if failed {
				inj.FlipDisks(nil, []int{1})
			} else {
				inj.FlipDisks([]int{1}, nil)
			}
			failed = !failed
			inj.SetTransientProb([]float64{0.05, 0.15, 0.3}[i%3])
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perCli; k++ {
				i := c*perCli + k
				res, err := s.Do(ctx, Query{Rect: queries[i], Priority: c % 3})
				if err != nil {
					// Offset-2 replication on 4 disks with one failed
					// disk keeps every bucket reachable; nothing may
					// fail.
					t.Errorf("client %d query %d failed: %v", c, k, err)
					continue
				}
				if len(res.Records) != len(want[i].Records) {
					t.Errorf("query %d: %d records, want %d", i, len(res.Records), len(want[i].Records))
					continue
				}
				for j := range res.Records {
					if res.Records[j].ID != want[i].Records[j].ID {
						t.Errorf("query %d record %d differs", i, j)
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()
	snap, err := s.Close()
	if err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	if got := snap.Stats.Completed; got != uint64(len(queries)) {
		t.Errorf("completed %d queries, want %d", got, len(queries))
	}
}
