package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/obs"
	"decluster/internal/replica"
)

// A slot is one cache line, so that two disk workers never write one.
func TestRunFoldSlotIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(diskSlot{}); n != 64 {
		t.Errorf("diskSlot is %d bytes, want 64", n)
	}
}

// trackerState is what the fold must reproduce of the per-read state
// machine.
func trackerState(h *Breakers, d int) (ewma float64, reads uint64, samples, consecErrs int) {
	t := h.disks[d]
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latency(), t.reads, t.samples, t.consecErrs
}

// Folding a run of equal clean samples books what observing them one at
// a time books: the same EWMA up to rounding, the same counts, the error
// streak broken — for random run lengths, latencies, smoothing factors
// and errors between runs.
func TestRunFoldMatchesPerReadObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		cfg := BreakerConfig{ErrorThreshold: -1, Alpha: 0.05 + 0.9*rng.Float64()}
		folded, err := NewBreakers(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		perRead, err := NewBreakers(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			n, x := rng.Intn(40), time.Duration(1+rng.Intn(5_000_000))
			for i := 0; i < n; i++ {
				perRead.Observe(0, x, nil)
			}
			folded.fold(0, float64(x), n)
			for i, n := 0, rng.Intn(3); i < n; i++ {
				folded.Observe(0, 0, fault.ErrTransient)
				perRead.Observe(0, 0, fault.ErrTransient)
			}
			fe, fr, fs, fc := trackerState(folded, 0)
			pe, pr, ps, pc := trackerState(perRead, 0)
			if math.Abs(fe-pe) > 1e-9*math.Max(math.Abs(fe), math.Abs(pe)) {
				t.Fatalf("trial %d step %d (alpha %.3f): folded EWMA %v, per-read %v", trial, step, cfg.Alpha, fe, pe)
			}
			if fr != pr || fs != ps || fc != pc {
				t.Fatalf("trial %d step %d: folded reads/samples/consecErrs %d/%d/%d, per-read %d/%d/%d",
					trial, step, fr, fs, fc, pr, ps, pc)
			}
		}
	}
}

// A latency threshold crossed by a run trips the breaker at that run's
// fold, and not before: a run is booked only when it is folded.
func TestRunFoldLatencyTripAtFold(t *testing.T) {
	const slow, fast = 10 * time.Millisecond, 100 * time.Microsecond
	h, err := NewBreakers(BreakerConfig{ErrorThreshold: -1, LatencyThreshold: time.Millisecond, MinSamples: 4, Cooldown: time.Hour}, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.fold(0, float64(slow), 3)
	if !h.closed(0) {
		t.Fatal("a run of 3 slow reads tripped the breaker below MinSamples 4")
	}
	h.fold(0, float64(fast), 20)
	if !h.closed(0) || h.EWMALatency(0) > time.Millisecond {
		t.Fatalf("fast reads left the EWMA at %v, closed %v; the next run must start closed and below the threshold", h.EWMALatency(0), h.closed(0))
	}
	h.fold(0, float64(slow), 12)
	if h.closed(0) || h.Trips() != 1 {
		t.Fatalf("run crossing the threshold (EWMA %v): closed %v, trips %d; want open at the fold", h.EWMALatency(0), h.closed(0), h.Trips())
	}
	if snap := h.Snapshot()[0]; snap.Reads != 35 {
		t.Errorf("reads %d, want 35", snap.Reads)
	}
}

// A half-open disk's reads are probes, booked one by one as they end —
// never pending in a run — and once the probes close the breaker, reads
// pend again until the run ends.
func TestRunFoldHalfOpenProbesOneByOne(t *testing.T) {
	f := newLoadedFile(t, 4, 1000)
	s, err := New(f, WithBreaker(BreakerConfig{ErrorThreshold: 1, Cooldown: 20 * time.Millisecond, HalfOpenProbes: 3}))
	if err != nil {
		t.Fatal(err)
	}
	bucket := -1
	for b := 0; b < f.Grid().Buckets() && bucket < 0; b++ {
		if f.BucketLen(b) > 0 {
			bucket = b
		}
	}
	if bucket < 0 {
		t.Fatal("fixture has no occupied bucket")
	}
	d := f.DiskOf(bucket)
	s.health.Observe(d, 0, fault.ErrTransient) // trips d's breaker
	for deadline := time.Now().Add(10 * time.Second); !s.health.Allow(d); {
		if time.Now().After(deadline) {
			t.Fatal("breaker never went half-open")
		}
		time.Sleep(time.Millisecond)
	}
	r := s.newServedReader(exec.NewFileReader(f))
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		if _, err := r.ReadBucket(ctx, d, bucket); err != nil {
			t.Fatal(err)
		}
		snap := s.HealthSnapshot()[d]
		if snap.Reads != uint64(1+i) {
			t.Fatalf("after probe %d: %d reads booked, want %d", i, snap.Reads, 1+i)
		}
		want := BreakerHalfOpen
		if i == 3 {
			want = BreakerClosed
		}
		if snap.State != want {
			t.Fatalf("after probe %d: state %v, want %v", i, snap.State, want)
		}
	}
	if _, err := r.ReadBucket(ctx, d, bucket); err != nil {
		t.Fatal(err)
	}
	if got := s.HealthSnapshot()[d].Reads; got != 4 {
		t.Fatalf("a clean read on a closed breaker was booked before its run ended: %d reads", got)
	}
	r.EndRun(d)
	if got := s.HealthSnapshot()[d].Reads; got != 5 {
		t.Fatalf("EndRun left the run unbooked: %d reads, want 5", got)
	}
}

// bookedReads sums the health tracker's read counts over the disks.
func bookedReads(s *Scheduler) (reads, errs uint64) {
	for _, d := range s.HealthSnapshot() {
		reads += d.Reads
		errs += d.Errors
	}
	return reads, errs
}

// Every run is folded before its query returns: after each fault-free
// hedged search over the file reader, whose reads never wait and so are
// not raced, the tracker has booked exactly the legs the scheduler
// counted.
func TestRunFoldBooksEveryReadBeforeReturn(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	s, err := New(f, WithFailover(rep), WithHedging(HedgeConfig{After: time.Hour}), WithObserver(sink))
	if err != nil {
		t.Fatal(err)
	}
	legs := sink.Registry().Counter("serve.reads.legs")
	g := f.Grid()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		x, y := rng.Intn(g.Dim(0)), rng.Intn(g.Dim(1))
		q := g.MustRect(grid.Coord{x / 2, y / 2}, grid.Coord{x, y})
		res, err := s.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		if reads, _ := bookedReads(s); reads != legs.Value() {
			t.Fatalf("after search %d (%v): %d reads booked, %d legs read", i, q, reads, legs.Value())
		}
	}
	if st := s.Stats(); st.HedgesIssued != 0 || legs.Value() == 0 {
		t.Fatalf("hedges %d, legs %d: want reads and no hedge", st.HedgesIssued, legs.Value())
	}
}

// cutReader serves clean reads until after of them have been served,
// then cuts the query: when fail is nil it cancels the query and every
// later read returns the context's error; otherwise the next read of
// disk failDisk returns fail. It counts what it returned that the health
// tracker books: clean reads, and errors that are not the context's.
type cutReader struct {
	inner    exec.BucketReader
	after    int64
	cancel   context.CancelFunc
	fail     error
	failDisk int

	served, clean, failed atomic.Int64
}

func (r *cutReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if r.fail == nil {
		if r.served.Add(1) > r.after {
			r.cancel()
			<-ctx.Done()
			return nil, ctx.Err()
		}
	} else if disk == r.failDisk && r.served.Add(1) > r.after {
		r.failed.Add(1)
		return nil, r.fail
	}
	recs, err := r.inner.ReadBucket(ctx, disk, bucket)
	if err == nil {
		r.clean.Add(1)
	}
	return recs, err
}

// A query cut short — cancelled mid-run, or failed on one disk after k
// clean reads there — still books every observable read it made before
// it returns: the clean reads pending in every run, and the failure.
func TestRunFoldBooksCutRuns(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	q := f.Grid().FullRect()

	t.Run("cancelled", func(t *testing.T) {
		rep, err := replica.NewOffset(f.Method(), 2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cr := &cutReader{inner: exec.NewFileReader(f), after: 37, cancel: cancel}
		s, err := New(f, WithBucketReader(cr), WithFailover(rep), WithHedging(HedgeConfig{After: time.Hour}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Search(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("cut query returned %v, want context.Canceled", err)
		}
		reads, errs := bookedReads(s)
		if reads != uint64(cr.clean.Load()) || errs != 0 || cr.clean.Load() != cr.after {
			t.Fatalf("%d reads / %d errors booked; the query made %d clean reads (cut after %d) and no observable error",
				reads, errs, cr.clean.Load(), cr.after)
		}
	})

	t.Run("failed", func(t *testing.T) {
		const disk, k = 2, 9
		broken := errors.New("disk gone")
		cr := &cutReader{inner: exec.NewFileReader(f), after: k, fail: broken, failDisk: disk}
		s, err := New(f, WithBucketReader(cr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Search(context.Background(), q); !errors.Is(err, broken) {
			t.Fatalf("query returned %v, want the disk's failure", err)
		}
		reads, errs := bookedReads(s)
		if want := uint64(cr.clean.Load() + cr.failed.Load()); reads != want || errs != 1 || cr.failed.Load() != 1 {
			t.Fatalf("%d reads / %d errors booked; the query made %d clean reads and %d failed", reads, errs, cr.clean.Load(), cr.failed.Load())
		}
		if h := s.HealthSnapshot()[disk]; h.Reads != k+1 || h.Errors != 1 {
			t.Fatalf("disk %d booked %d reads / %d errors, want %d / 1", disk, h.Reads, h.Errors, k+1)
		}
	})
}

// scriptReader plays a script of outcomes on one disk — 'c' a clean
// read, 'f' a transient failure, clean past its end — and records the
// disk's breaker state as each read of it starts.
type scriptReader struct {
	inner  exec.BucketReader
	disk   int
	script string
	h      *Breakers
	states []BreakerState // written by the disk's worker alone
}

func (r *scriptReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if disk != r.disk {
		return r.inner.ReadBucket(ctx, disk, bucket)
	}
	i := len(r.states)
	r.states = append(r.states, r.h.Snapshot()[disk].State)
	if i < len(r.script) && r.script[i] == 'f' {
		return nil, &fault.TransientError{Disk: disk, Bucket: bucket, Attempt: 1}
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// Consecutive errors keep their order against the clean reads around
// them: a run folds before its disk's next error is observed, so
// ErrorThreshold failures after a clean run trip the breaker on the same
// read that observing every read would — and two failures, a clean
// retry and three more failures trip it on the third of those, not on
// the first after a clean read still pending.
func TestRunFoldKeepsErrorStreakOrder(t *testing.T) {
	const (
		disk      = 1
		threshold = 3
		// Five clean reads, a bucket that fails twice and then reads on
		// its third attempt, and one that fails three times: the streak
		// reaches the threshold on read 11.
		script   = "cccccffcfff"
		tripRead = 11
	)
	f := newLoadedFile(t, 4, 3000)
	sr := &scriptReader{inner: exec.NewFileReader(f), disk: disk, script: script}
	s, err := New(f,
		WithBucketReader(sr),
		WithRetry(exec.RetryPolicy{MaxAttempts: threshold + 1}),
		WithBreaker(BreakerConfig{ErrorThreshold: threshold, Cooldown: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	sr.h = s.health
	if _, err := s.Search(context.Background(), f.Grid().FullRect()); err != nil {
		t.Fatal(err)
	}
	if len(sr.states) <= tripRead {
		t.Fatalf("disk %d read %d buckets, want more than %d", disk, len(sr.states), tripRead)
	}
	for i, st := range sr.states[:tripRead+1] {
		want := BreakerClosed
		if i == tripRead {
			want = BreakerOpen
		}
		if st != want {
			t.Fatalf("as read %d of disk %d started the breaker was %v, want %v (trip on read %d)", i+1, disk, st, want, tripRead)
		}
	}
	h := s.HealthSnapshot()[disk]
	if h.Trips != 1 || h.Errors != 5 || h.Reads != uint64(len(sr.states)) {
		t.Fatalf("disk %d health %+v: want 1 trip, 5 errors, %d reads", disk, h, len(sr.states))
	}
}

// Co-tenant schedulers on one sink share the scalar gauges
// serve.queue.depth and serve.inflight; each reads the sum over its
// schedulers — two queued queries read 2, not whichever scheduler wrote
// last — and returns to 0 once they drain, by dispatch or by Close.
func TestCoTenantGaugesSumOverSchedulers(t *testing.T) {
	f := newLoadedFile(t, 4, 500)
	sink := obs.NewSink()
	depth, inflight := sink.Registry().Gauge("serve.queue.depth"), sink.Registry().Gauge("serve.inflight")
	q := f.Grid().FullRect()
	type tenant struct {
		s            *Scheduler
		gr           *gatedReader
		held, queued chan error
	}
	// start boots two schedulers on the sink, each with one query holding
	// its only slot and one waiting in its queue.
	start := func() []tenant {
		ts := make([]tenant, 2)
		for i := range ts {
			gr := &gatedReader{inner: exec.NewFileReader(f), gate: make(chan struct{}), started: make(chan struct{})}
			s, err := New(f, WithBucketReader(gr), WithAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4}), WithObserver(sink))
			if err != nil {
				t.Fatal(err)
			}
			ts[i] = tenant{s: s, gr: gr, held: make(chan error, 1), queued: make(chan error, 1)}
			go func() { _, err := s.Search(context.Background(), q); ts[i].held <- err }()
			<-gr.started
			go func() { _, err := s.Search(context.Background(), q); ts[i].queued <- err }()
			for s.QueueDepth() != 1 {
				time.Sleep(time.Millisecond)
			}
		}
		if d, n := depth.Value(), inflight.Value(); d != 2 || n != 2 {
			t.Fatalf("two schedulers with one query queued and one in flight each: queue depth %d, in flight %d; want 2 and 2", d, n)
		}
		return ts
	}

	ts := start()
	for _, tn := range ts {
		close(tn.gr.gate)
		if err := <-tn.held; err != nil {
			t.Fatal(err)
		}
		if err := <-tn.queued; err != nil {
			t.Fatal(err)
		}
	}
	if d, n := depth.Value(), inflight.Value(); d != 0 || n != 0 {
		t.Fatalf("drained by dispatch: queue depth %d, in flight %d; want 0 and 0", d, n)
	}

	ts = start()
	closed := make(chan error, len(ts))
	for _, tn := range ts {
		go func() { _, err := tn.s.Close(); closed <- err }()
		if err := <-tn.queued; !errors.Is(err, ErrClosed) {
			t.Fatalf("queued query at Close returned %v, want ErrClosed", err)
		}
	}
	if d, n := depth.Value(), inflight.Value(); d != 0 || n != 2 {
		t.Fatalf("queues flushed by Close, held queries still running: queue depth %d, in flight %d; want 0 and 2", d, n)
	}
	for _, tn := range ts {
		close(tn.gr.gate)
		if err := <-tn.held; err != nil {
			t.Fatal(err)
		}
	}
	for range ts {
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
	}
	if d, n := depth.Value(), inflight.Value(); d != 0 || n != 0 {
		t.Fatalf("after Close: queue depth %d, in flight %d; want 0 and 0", d, n)
	}
}

// Folding n equal samples in closed form — (1−α)ⁿ by squaring — books
// the EWMA that n Observe calls book on a twin tracker, to 1e-12
// relative, on an endpoint with no sample yet and on one already holding
// samples.
func TestRunFoldClosedFormMatchesLoop(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	for _, alpha := range []float64{0.05, 0.2, 0.5, 0.9} {
		for _, n := range []int{1, 2, 3, 144, 2304} {
			for _, prior := range []int{0, 5} {
				cfg := BreakerConfig{ErrorThreshold: -1, Alpha: alpha}
				loop, err := NewBreakers(cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				closed, err := NewBreakers(cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < prior; i++ {
					x := time.Duration(1000 * (i + 1))
					loop.Observe(0, x, nil)
					closed.Observe(0, x, nil)
				}
				const x = 73_457 * time.Nanosecond
				for i := 0; i < n; i++ {
					loop.Observe(0, x, nil)
				}
				closed.fold(0, float64(x), n)
				ce, cr, cs, _ := trackerState(closed, 0)
				le, lr, ls, _ := trackerState(loop, 0)
				if !near(ce, le) || cr != lr || cs != ls {
					t.Errorf("alpha %.2f, %d prior samples, n %d: closed form EWMA %v, %d reads, %d samples; loop %v, %d, %d",
						alpha, prior, n, ce, cr, cs, le, lr, ls)
				}
			}
		}
	}
}
