package repair

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/replica"
	"decluster/internal/serve"
)

// fixture builds a populated grid file, a chained replica scheme over
// its method, and the checksummed two-copy store beneath them.
func fixture(t testing.TB, disks, records int) (*gridfile.File, *replica.Replicated, *gridfile.Store) {
	t.Helper()
	g := grid.MustNew(8, 8)
	m, err := alloc.NewHCAM(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	f, err := gridfile.New(gridfile.Config{Method: m, PageCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(datagen.Uniform{K: 2, Seed: 17}.Generate(records)); err != nil {
		t.Fatal(err)
	}
	rep, err := replica.NewChained(m)
	if err != nil {
		t.Fatal(err)
	}
	store, err := gridfile.NewStore(f, func(b int) []int {
		return []int{rep.PrimaryOf(b), rep.BackupOf(b)}
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, rep, store
}

func TestTrackerStateMachine(t *testing.T) {
	var tr Tracker
	if tr.Get(0) != StateHealthy {
		t.Error("fresh tracker not healthy")
	}
	tr.Suspect(1)
	if tr.Get(1) != StateSuspect {
		t.Error("Suspect did not stick")
	}
	tr.Set(1, StateRebuilding)
	tr.Suspect(1) // must not demote a rebuilding disk
	if tr.Get(1) != StateRebuilding {
		t.Error("Suspect demoted a rebuilding disk")
	}
	tr.Suspect(3)
	if got := tr.NonHealthy(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("NonHealthy = %v, want [1 3]", got)
	}
	tr.Set(1, StateHealthy)
	tr.Set(3, StateHealthy)
	if got := tr.NonHealthy(); len(got) != 0 {
		t.Errorf("NonHealthy after recovery = %v", got)
	}
	for s, want := range map[State]string{StateHealthy: "healthy", StateSuspect: "suspect", StateRebuilding: "rebuilding"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", int(s), s.String())
		}
	}
}

func TestSeedCorruptionKeepsCleanCopy(t *testing.T) {
	_, _, store := fixture(t, 4, 2048)
	inj, err := fault.New(fault.Config{Seed: 5, CorruptProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	n := SeedCorruption(store, inj)
	if n == 0 {
		t.Fatal("p=0.4 corrupted nothing")
	}
	bad := store.VerifyAll()
	if len(bad) != n {
		t.Errorf("VerifyAll found %d corrupt pages, SeedCorruption reported %d", len(bad), n)
	}
	// Every bucket must retain one fully clean copy.
	for b := 0; b < store.Grid().Buckets(); b++ {
		if store.BucketPages(b) == 0 {
			continue
		}
		clean := 0
		for _, d := range store.Holders(b) {
			if _, err := store.ReadVerified(d, b); err == nil {
				clean++
			}
		}
		if clean == 0 {
			t.Fatalf("bucket %d has no clean copy left", b)
		}
	}
	// Determinism: a twin store corrupted with the same seed agrees.
	_, _, twin := fixture(t, 4, 2048)
	inj2, _ := fault.New(fault.Config{Seed: 5, CorruptProb: 0.4})
	if m := SeedCorruption(twin, inj2); m != n {
		t.Errorf("twin run corrupted %d pages, want %d", m, n)
	}
}

func TestScrubberRepairsEverything(t *testing.T) {
	_, _, store := fixture(t, 4, 2048)
	inj, _ := fault.New(fault.Config{Seed: 9, CorruptProb: 0.25})
	n := SeedCorruption(store, inj)
	if n == 0 {
		t.Fatal("nothing corrupted")
	}
	// The scrubber counts corrupt copies (a copy may hold several rotten
	// pages), so derive the expected count from the verify sweep.
	copies := map[[2]int]bool{}
	for _, ce := range store.VerifyAll() {
		copies[[2]int{ce.Disk, ce.Bucket}] = true
	}
	want := len(copies)
	var tr Tracker
	sc, err := NewScrubber(store, ScrubConfig{Tracker: &tr, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFound != want || rep.Repaired != want || rep.Unrepairable != 0 {
		t.Errorf("scrub found/repaired/unrepairable = %d/%d/%d, want %d/%d/0",
			rep.CorruptFound, rep.Repaired, rep.Unrepairable, want, want)
	}
	if rep.PagesScanned == 0 {
		t.Error("scrub scanned no pages")
	}
	if len(store.VerifyAll()) != 0 {
		t.Error("store still corrupt after scrub")
	}
	if len(tr.NonHealthy()) == 0 {
		t.Error("tracker recorded no suspect disks during a corrupt sweep")
	}
	// A second, clean sweep clears the suspicion.
	rep2, err := sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CorruptFound != 0 {
		t.Errorf("second sweep still found %d corrupt copies", rep2.CorruptFound)
	}
	if got := tr.NonHealthy(); len(got) != 0 {
		t.Errorf("tracker still suspects %v after a clean sweep", got)
	}
}

func TestScrubberSkipsFailedDisks(t *testing.T) {
	_, _, store := fixture(t, 4, 1024)
	inj, _ := fault.New(fault.Config{FailDisks: []int{2}})
	sc, err := NewScrubber(store, ScrubConfig{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SkippedDisks) != 1 || rep.SkippedDisks[0] != 2 {
		t.Errorf("SkippedDisks = %v, want [2]", rep.SkippedDisks)
	}
}

func TestTokenBucketPaces(t *testing.T) {
	if _, err := NewThrottle(-1, 0); err == nil {
		t.Error("negative rate accepted")
	}
	tb, err := NewThrottle(0, 0)
	if err != nil || tb != nil {
		t.Fatalf("rate 0 should disable throttling, got %v, %v", tb, err)
	}
	if err := tb.Take(context.Background(), 100); err != nil {
		t.Errorf("nil bucket blocked: %v", err)
	}
	// 1000 pages/sec with burst 1: taking ~50 tokens must cost ~50ms.
	tb, err = NewThrottle(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 50; i++ {
		if err := tb.Take(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := time.Since(start); got < 30*time.Millisecond {
		t.Errorf("50 tokens at 1000/s took %v, want ≈ 50ms", got)
	}
	// Cancellation interrupts a blocked take.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := tb.Take(ctx, 10000); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled take returned %v", err)
	}
}

// TestThrottleRejectsNonFinite: a NaN or infinite rate, and a NaN or
// +Inf burst, would let Take grant tokens without ever waiting.
func TestThrottleRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ rate, burst float64 }{
		{nan, 0}, {inf, 0}, {-inf, 0}, {10, nan}, {10, inf},
	} {
		if tb, err := NewThrottle(c.rate, c.burst); err == nil {
			t.Errorf("NewThrottle(%v, %v) = %+v, want an error", c.rate, c.burst, tb)
		}
	}
	// A -Inf burst is ≤ 0: the default, one second of rate.
	if _, err := NewThrottle(10, -inf); err != nil {
		t.Errorf("NewThrottle(10, -Inf): %v", err)
	}
}

func TestReadRepairInline(t *testing.T) {
	f, rep, store := fixture(t, 4, 2048)
	inj, _ := fault.New(fault.Config{Seed: 21, CorruptProb: 0.25})
	n := SeedCorruption(store, inj)
	if n == 0 {
		t.Fatal("nothing corrupted")
	}
	var tr Tracker
	rr := NewReadRepairer(store, &tr, nil)
	e, err := exec.New(f,
		exec.WithBucketReader(exec.NewStoreReader(store)),
		exec.WithFailover(rep),
		exec.WithReadWrapper(rr.Wrap))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := exec.New(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := f.Grid().FullRect()
	want, err := plain.RangeSearch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RangeSearch(ctx, q)
	if err != nil {
		t.Fatalf("foreground query over corrupt store failed: %v", err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("read-repaired query returned %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if got.Records[i].ID != want.Records[i].ID {
			t.Fatalf("record %d differs after read-repair", i)
		}
	}
	if rr.Repairs() == 0 {
		t.Error("full scan over corrupt primaries performed no read-repairs")
	}
	if rr.Failures() != 0 {
		t.Errorf("%d unrepairable reads in a one-clean-copy-guaranteed store", rr.Failures())
	}
	if len(tr.NonHealthy()) == 0 {
		t.Error("read-repair recorded no suspect disks")
	}
	// The full scan reads every primary copy; any corruption the scan hit
	// is repaired in place. Corruption may remain only on backup copies
	// the scan never touched.
	for _, ce := range store.VerifyAll() {
		if ce.Disk == rep.PrimaryOf(ce.Bucket) {
			t.Errorf("primary copy of bucket %d still corrupt after full scan", ce.Bucket)
		}
	}
}

func TestRebuildRequiresPermanentFailure(t *testing.T) {
	_, _, store := fixture(t, 4, 512)
	inj, _ := fault.New(fault.Config{})
	if _, err := NewRebuilder(nil, nil, inj, RebuildConfig{}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewRebuilder(store, nil, nil, RebuildConfig{}); err == nil {
		t.Error("nil injector accepted")
	}
	rb, err := NewRebuilder(store, nil, inj, RebuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Rebuild(context.Background(), 1); err == nil {
		t.Error("rebuild of a healthy disk accepted")
	}
	inj.FailDisk(1) // transient, not permanent
	if _, err := rb.Rebuild(context.Background(), 1); err == nil {
		t.Error("rebuild of a transiently failed disk accepted")
	}
}

func TestRebuildDirect(t *testing.T) {
	_, _, store := fixture(t, 4, 2048)
	inj, _ := fault.New(fault.Config{})
	var tr Tracker
	rb, err := NewRebuilder(store, nil, inj, RebuildConfig{Tracker: &tr})
	if err != nil {
		t.Fatal(err)
	}
	const lost = 2
	inj.FailPermanent(lost)
	dropped := len(store.BucketsOn(lost))
	rep, err := rb.Rebuild(context.Background(), lost)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Disk != lost || rep.Buckets != dropped {
		t.Errorf("rebuilt %d buckets on disk %d, want %d on %d", rep.Buckets, rep.Disk, dropped, lost)
	}
	if rep.Pages == 0 || rep.Elapsed <= 0 {
		t.Errorf("report pages/elapsed = %d/%v", rep.Pages, rep.Elapsed)
	}
	if got := store.MissingOn(lost); len(got) != 0 {
		t.Errorf("MissingOn after rebuild = %v", got)
	}
	if inj.DiskFailed(lost) || inj.PermanentlyFailed(lost) {
		t.Error("rebuilt disk not returned to service")
	}
	if tr.Get(lost) != StateHealthy {
		t.Errorf("tracker state after rebuild = %v", tr.Get(lost))
	}
	if len(store.VerifyAll()) != 0 {
		t.Error("rebuilt copies do not verify")
	}
}

// A parallel rebuild must converge to the same verified-clean state as
// a sequential one, with every missing bucket reconstructed exactly
// once.
func TestRebuildParallel(t *testing.T) {
	_, _, store := fixture(t, 4, 2048)
	inj, _ := fault.New(fault.Config{})
	var tr Tracker
	rb, err := NewRebuilder(store, nil, inj, RebuildConfig{Parallel: 4, Tracker: &tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRebuilder(store, nil, inj, RebuildConfig{Parallel: -1}); err == nil {
		t.Error("negative parallelism accepted")
	}
	const lost = 1
	inj.FailPermanent(lost)
	dropped := len(store.BucketsOn(lost))
	rep, err := rb.Rebuild(context.Background(), lost)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Buckets != dropped {
		t.Errorf("parallel rebuild reconstructed %d buckets, want %d", rep.Buckets, dropped)
	}
	if got := store.MissingOn(lost); len(got) != 0 {
		t.Errorf("MissingOn after parallel rebuild = %v", got)
	}
	if len(store.VerifyAll()) != 0 {
		t.Error("parallel rebuild left unverifiable copies")
	}
	if tr.Get(lost) != StateHealthy || inj.DiskFailed(lost) {
		t.Error("disk not back in service after parallel rebuild")
	}
}

func TestRebuildThrottled(t *testing.T) {
	_, _, store := fixture(t, 4, 1024)
	inj, _ := fault.New(fault.Config{})
	inj.FailPermanent(1)
	pages := 0
	for _, b := range store.BucketsOn(1) {
		pages += store.BucketPages(b)
	}
	// Throttle so the rebuild takes a measurable but bounded time.
	rate := float64(pages) * 20 // ≈ 50ms worth of pages
	rb, err := NewRebuilder(store, nil, inj, RebuildConfig{PagesPerSec: rate, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rb.Rebuild(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed < 25*time.Millisecond {
		t.Errorf("throttled rebuild of %d pages at %.0f pages/s took only %v", rep.Pages, rate, rep.Elapsed)
	}
	// Cancellation mid-rebuild surfaces the context error.
	inj.FailPermanent(2)
	rb2, _ := NewRebuilder(store, nil, inj, RebuildConfig{PagesPerSec: 10, Burst: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := rb2.Rebuild(ctx, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled rebuild returned %v", err)
	}
}

// TestRebuildCancelledLeavesDiskFailed: a rebuild whose context ends
// before every missing bucket has landed must fail with the context's
// error and leave the disk failed, with and without a scheduler. The
// context here is cancelled before Rebuild starts, so the feeder and
// the workers race on an already-closed Done channel.
func TestRebuildCancelledLeavesDiskFailed(t *testing.T) {
	for _, withSched := range []bool{false, true} {
		cut := 0 // runs the cancel cut short
		for run := 0; run < 20; run++ {
			f, rep, store := fixture(t, 4, 2048)
			inj, _ := fault.New(fault.Config{})
			var sched *serve.Scheduler
			if withSched {
				var err error
				sched, err = serve.New(f,
					serve.WithBucketReader(exec.NewStoreReader(store)),
					serve.WithFaults(inj),
					serve.WithFailover(rep))
				if err != nil {
					t.Fatal(err)
				}
			}
			var tr Tracker
			rb, err := NewRebuilder(store, sched, inj, RebuildConfig{Tracker: &tr})
			if err != nil {
				t.Fatal(err)
			}
			const lost = 1
			inj.FailPermanent(lost)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err = rb.Rebuild(ctx, lost)
			if sched != nil {
				if _, cerr := sched.Close(); cerr != nil {
					t.Fatal(cerr)
				}
			}
			missing := len(store.MissingOn(lost))
			if missing == 0 {
				continue // every bucket landed: a completed rebuild is correct
			}
			cut++
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("scheduler %v: cancelled rebuild with %d buckets missing returned %v", withSched, missing, err)
			}
			if !inj.DiskFailed(lost) {
				t.Fatalf("scheduler %v: disk %d back in service with %d buckets missing", withSched, lost, missing)
			}
			if tr.Get(lost) == StateHealthy {
				t.Fatalf("scheduler %v: tracker healthy with %d buckets missing", withSched, missing)
			}
		}
		if cut == 0 {
			t.Errorf("scheduler %v: a cancelled context never cut a rebuild short", withSched)
		}
	}
}

// TestScrubberHonoursCancelledContext: a sweep on an ended context
// scans nothing, repairs nothing and returns the context's error.
func TestScrubberHonoursCancelledContext(t *testing.T) {
	_, _, store := fixture(t, 4, 2048)
	inj, _ := fault.New(fault.Config{Seed: 9, CorruptProb: 0.25})
	if SeedCorruption(store, inj) == 0 {
		t.Fatal("nothing corrupted")
	}
	corrupt := len(store.VerifyAll())
	sc, err := NewScrubber(store, ScrubConfig{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := sc.RunOnce(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scrub returned %v", err)
	}
	if rep.PagesScanned != 0 || rep.Repaired != 0 {
		t.Errorf("cancelled scrub scanned %d pages and repaired %d copies", rep.PagesScanned, rep.Repaired)
	}
	if got := len(store.VerifyAll()); got != corrupt {
		t.Errorf("cancelled scrub changed the store: %d corrupt pages, want %d", got, corrupt)
	}
}

// Read-repair forwards its inner reader's NeverWaits: a repair reads a
// sibling copy and writes it back in memory. So a hedged scheduler over
// the store reader with read-repair races no read — a clean search
// issues no hedge, even at a delay every race would outlast — and still
// repairs a corrupted copy inline.
func TestReadRepairKeepsStoreNeverWaiting(t *testing.T) {
	f, rep, store := fixture(t, 4, 2048)
	rr := NewReadRepairer(store, nil, nil)
	if !exec.NeverWaits(rr.Wrap(exec.NewStoreReader(store))) {
		t.Fatal("read-repair over the store reader declares that its reads may wait")
	}
	s, err := serve.New(f,
		serve.WithBucketReader(exec.NewStoreReader(store)),
		serve.WithFailover(rep),
		serve.WithHedging(serve.HedgeConfig{After: time.Nanosecond}),
		serve.WithReadWrapper(rr.Wrap))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plain, err := exec.New(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := f.Grid().FullRect()
	want, err := plain.RangeSearch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	search := func(what string) {
		t.Helper()
		got, err := s.Search(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("%s: %d records, want %d", what, len(got.Records), len(want.Records))
		}
		for i := range got.Records {
			if got.Records[i].ID != want.Records[i].ID {
				t.Fatalf("%s: record %d differs", what, i)
			}
		}
		got.Release()
		if n := s.Stats().HedgesIssued; n != 0 {
			t.Fatalf("%s: %d hedges issued over an in-memory store, want 0", what, n)
		}
	}
	search("clean search")

	bucket := -1
	for b := 0; b < f.Grid().Buckets() && bucket < 0; b++ {
		if store.BucketPages(b) > 0 {
			bucket = b
		}
	}
	if bucket < 0 || !store.Corrupt(rep.PrimaryOf(bucket), bucket, 0) {
		t.Fatal("no primary copy to corrupt")
	}
	search("search over a corrupted copy")
	if rr.Repairs() != 1 || rr.Failures() != 0 {
		t.Errorf("%d repairs, %d failures; want the corrupted copy repaired inline", rr.Repairs(), rr.Failures())
	}
	if bad := store.VerifyAll(); len(bad) != 0 {
		t.Errorf("%d corrupt copies left after the search repaired it", len(bad))
	}
}
