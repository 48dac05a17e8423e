package fault

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{TransientProb: -0.1},
		{TransientProb: 1.0},
		{FailDisks: []int{-1}},
		{Stragglers: map[int]float64{0: 0.5}},
		{Stragglers: map[int]float64{-2: 2}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	in, err := New(Config{Seed: 7, FailDisks: []int{3, 1, 3}, TransientProb: 0.25,
		Stragglers: map[int]float64{2: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if in.Seed() != 7 || in.TransientProb() != 0.25 {
		t.Error("accessors wrong")
	}
	if got := in.FailedDisks(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("FailedDisks = %v, want [1 3]", got)
	}
	if in.SlowFactor(2) != 4 || in.SlowFactor(0) != 1 {
		t.Error("slow factors wrong")
	}
}

// TestNonFiniteRefused requires every probability and straggler factor
// check to refuse NaN, which passes any plain comparison, and the
// factors to refuse +Inf.
func TestNonFiniteRefused(t *testing.T) {
	nan := math.NaN()
	for _, cfg := range []Config{
		{TransientProb: nan},
		{CorruptProb: nan},
		{Stragglers: map[int]float64{0: nan}},
		{Stragglers: map[int]float64{0: math.Inf(1)}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	in, err := New(Config{Seed: 1, TransientProb: 0.2, CorruptProb: 0.1, Stragglers: map[int]float64{0: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.SetTransientProb(nan); err == nil {
		t.Error("SetTransientProb(NaN) accepted")
	}
	if err := in.SetCorruptProb(nan); err == nil {
		t.Error("SetCorruptProb(NaN) accepted")
	}
	for _, f := range []float64{nan, math.Inf(1)} {
		if err := in.SetSlowFactor(0, f); err == nil {
			t.Errorf("SetSlowFactor(0, %v) accepted", f)
		}
	}
	if in.TransientProb() != 0.2 || in.CorruptProb() != 0.1 || in.SlowFactor(0) != 3 {
		t.Error("refused values mutated state")
	}
}

func TestFailStopLifecycle(t *testing.T) {
	in, _ := New(Config{})
	if in.DiskFailed(0) {
		t.Fatal("fresh injector has failed disk")
	}
	in.FailDisk(2)
	if !in.DiskFailed(2) {
		t.Fatal("FailDisk did not stick")
	}
	err := in.CheckRead(2, 10, 1)
	var dfe *DiskFailedError
	if !errors.As(err, &dfe) || dfe.Disk != 2 {
		t.Fatalf("CheckRead on failed disk = %v", err)
	}
	if !errors.Is(err, ErrDiskFailed) {
		t.Error("DiskFailedError does not match ErrDiskFailed")
	}
	in.RecoverDisk(2)
	if err := in.CheckRead(2, 10, 1); err != nil {
		t.Fatalf("recovered disk still errors: %v", err)
	}
	set := in.FailedSet()
	set[5] = true // mutating the copy must not affect the injector
	if in.DiskFailed(5) {
		t.Error("FailedSet returned live state")
	}
}

func TestTransientDeterministic(t *testing.T) {
	a, _ := New(Config{Seed: 42, TransientProb: 0.5})
	b, _ := New(Config{Seed: 42, TransientProb: 0.5})
	for disk := 0; disk < 4; disk++ {
		for bucket := 0; bucket < 64; bucket++ {
			for attempt := 1; attempt <= 4; attempt++ {
				ea := a.CheckRead(disk, bucket, attempt)
				eb := b.CheckRead(disk, bucket, attempt)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("seed 42 disagrees at (%d,%d,%d)", disk, bucket, attempt)
				}
				if ea != nil && !errors.Is(ea, ErrTransient) {
					t.Fatalf("transient error does not match sentinel: %v", ea)
				}
			}
		}
	}
}

func TestTransientRateAndRetryIndependence(t *testing.T) {
	in, _ := New(Config{Seed: 1, TransientProb: 0.3})
	fails, n := 0, 0
	retrySucceeds := 0
	firstFails := 0
	for bucket := 0; bucket < 5000; bucket++ {
		n++
		if in.CheckRead(0, bucket, 1) != nil {
			fails++
			firstFails++
			// A failed read must eventually succeed on retry — fresh
			// coin per attempt.
			for attempt := 2; attempt <= 10; attempt++ {
				if in.CheckRead(0, bucket, attempt) == nil {
					retrySucceeds++
					break
				}
			}
		}
	}
	rate := float64(fails) / float64(n)
	if math.Abs(rate-0.3) > 0.03 {
		t.Errorf("observed transient rate %.3f, want ≈ 0.30", rate)
	}
	if firstFails > 0 && retrySucceeds < firstFails*99/100 {
		t.Errorf("only %d/%d failed reads recovered within 10 attempts", retrySucceeds, firstFails)
	}
}

func TestUnavailableError(t *testing.T) {
	err := error(&UnavailableError{Buckets: []int{3, 9}, FailedDisks: []int{1}})
	if !errors.Is(err, ErrUnavailable) {
		t.Error("UnavailableError does not match ErrUnavailable")
	}
	var ue *UnavailableError
	if !errors.As(err, &ue) || len(ue.Buckets) != 2 {
		t.Error("errors.As failed")
	}
	msg := err.Error()
	for _, want := range []string{"unavailable", "[3 9]", "[1]"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	in, _ := New(Config{Seed: 3, TransientProb: 0.1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.CheckRead(w, i, 1)
				in.DiskFailed(w)
				in.SlowFactor(w)
			}
		}(w)
	}
	in.FailDisk(3)
	in.RecoverDisk(3)
	if err := in.SetSlowFactor(1, 2.5); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if in.SlowFactor(1) != 2.5 {
		t.Error("SetSlowFactor lost")
	}
	if err := in.SetSlowFactor(1, 0.2); err == nil {
		t.Error("sub-1 multiplier accepted")
	}
	if err := in.SetSlowFactor(1, 1); err != nil || in.SlowFactor(1) != 1 {
		t.Error("multiplier 1 should clear the straggler")
	}
}

func TestSetTransientProb(t *testing.T) {
	in, _ := New(Config{Seed: 1, TransientProb: 0.2})
	for _, bad := range []float64{-0.1, 1.0, 1.5} {
		if err := in.SetTransientProb(bad); err == nil {
			t.Errorf("SetTransientProb(%v) accepted", bad)
		}
	}
	if in.TransientProb() != 0.2 {
		t.Error("rejected probability mutated state")
	}
	if err := in.SetTransientProb(0); err != nil {
		t.Fatal(err)
	}
	for bucket := 0; bucket < 1000; bucket++ {
		if in.CheckRead(0, bucket, 1) != nil {
			t.Fatal("probability 0 still injects transient errors")
		}
	}
	if err := in.SetTransientProb(0.9); err != nil {
		t.Fatal(err)
	}
	fails := 0
	for bucket := 0; bucket < 1000; bucket++ {
		if in.CheckRead(0, bucket, 1) != nil {
			fails++
		}
	}
	if fails < 800 {
		t.Errorf("ramped probability 0.9 injected only %d/1000 errors", fails)
	}
}

func TestFlipDisksAtomic(t *testing.T) {
	in, _ := New(Config{FailDisks: []int{0}})
	if err := in.FlipDisks([]int{-1}, nil); err == nil {
		t.Error("negative fail disk accepted")
	}
	if err := in.FlipDisks(nil, []int{-1}); err == nil {
		t.Error("negative recover disk accepted")
	}
	// Invariant: exactly one of disks {0, 1} is failed at all times.
	// Each flip atomically swaps which one; a concurrent Snapshot or
	// FailedSet must never observe both or neither.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := in.Snapshot()
				if len(s.FailedDisks) != 1 {
					t.Errorf("snapshot saw half-applied flip: failed %v", s.FailedDisks)
					return
				}
				set := in.FailedSet()
				if len(set) != 1 {
					t.Errorf("FailedSet saw half-applied flip: %v", set)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if err := in.FlipDisks([]int{1}, []int{0}); err != nil {
			t.Fatal(err)
		}
		if err := in.FlipDisks([]int{0}, []int{1}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// A disk in both batches ends up recovered (recoveries apply last).
	if err := in.FlipDisks([]int{5}, []int{5}); err != nil {
		t.Fatal(err)
	}
	if in.DiskFailed(5) {
		t.Error("disk in both fail and recover batches stayed failed")
	}
}

func TestSnapshotConsistency(t *testing.T) {
	in, _ := New(Config{Seed: 9, TransientProb: 0.1,
		FailDisks: []int{4, 2}, Stragglers: map[int]float64{1: 3}})
	s := in.Snapshot()
	if s.Seed != 9 || s.TransientProb != 0.1 {
		t.Errorf("snapshot scalars wrong: %+v", s)
	}
	if len(s.FailedDisks) != 2 || s.FailedDisks[0] != 2 || s.FailedDisks[1] != 4 {
		t.Errorf("snapshot failed disks = %v, want [2 4]", s.FailedDisks)
	}
	if s.Stragglers[1] != 3 {
		t.Errorf("snapshot stragglers = %v", s.Stragglers)
	}
	// The snapshot is a copy: mutating it must not affect the injector.
	s.Stragglers[7] = 2
	s.FailedDisks[0] = 99
	if in.SlowFactor(7) != 1 || in.DiskFailed(99) {
		t.Error("Snapshot returned live state")
	}
	// Concurrent mutation against snapshots under the race detector.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			in.Snapshot()
			in.TransientProb()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			in.FlipDisks([]int{i % 8}, []int{(i + 1) % 8})
			in.SetTransientProb(float64(i%9) / 10)
			in.SetSlowFactor(i%8, 1+float64(i%3))
		}
	}()
	wg.Wait()
}

func TestPermanentFailureLifecycle(t *testing.T) {
	in, _ := New(Config{})
	in.FailPermanent(2)
	if !in.DiskFailed(2) || !in.PermanentlyFailed(2) {
		t.Fatal("FailPermanent did not stick")
	}
	// RecoverDisk and FlipDisks recover batches must not resurrect it.
	in.RecoverDisk(2)
	if !in.DiskFailed(2) {
		t.Error("RecoverDisk cleared a permanent failure")
	}
	if err := in.FlipDisks(nil, []int{2}); err != nil {
		t.Fatal(err)
	}
	if !in.DiskFailed(2) {
		t.Error("FlipDisks recover batch cleared a permanent failure")
	}
	in.FailPermanent(5)
	if got := in.PermanentDisks(); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("PermanentDisks = %v, want [2 5]", got)
	}
	s := in.Snapshot()
	if len(s.PermanentDisks) != 2 || len(s.FailedDisks) != 2 {
		t.Errorf("snapshot permanent/failed = %v / %v", s.PermanentDisks, s.FailedDisks)
	}
	// Only ReplaceDisk returns a rebuilt disk to service.
	in.ReplaceDisk(2)
	if in.DiskFailed(2) || in.PermanentlyFailed(2) {
		t.Error("ReplaceDisk did not clear permanent state")
	}
	// ReplaceDisk on a transient failure behaves like RecoverDisk.
	in.FailDisk(7)
	in.ReplaceDisk(7)
	if in.DiskFailed(7) {
		t.Error("ReplaceDisk left transient failure in place")
	}
}

func TestCorruptionPlan(t *testing.T) {
	if _, err := New(Config{CorruptProb: -0.1}); err == nil {
		t.Error("negative corruption probability accepted")
	}
	if _, err := New(Config{CorruptProb: 1.0}); err == nil {
		t.Error("corruption probability 1 accepted")
	}
	in, err := New(Config{Seed: 11, CorruptProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if in.CorruptProb() != 0.2 {
		t.Error("CorruptProb accessor wrong")
	}
	// Deterministic: two injectors with the same seed agree page by page.
	twin, _ := New(Config{Seed: 11, CorruptProb: 0.2})
	hits, n := 0, 0
	for disk := 0; disk < 4; disk++ {
		for bucket := 0; bucket < 100; bucket++ {
			for page := 0; page < 5; page++ {
				n++
				a, b := in.PageCorrupt(disk, bucket, page), twin.PageCorrupt(disk, bucket, page)
				if a != b {
					t.Fatalf("corruption plan disagrees at (%d,%d,%d)", disk, bucket, page)
				}
				if a {
					hits++
				}
			}
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.2) > 0.03 {
		t.Errorf("observed corruption rate %.3f, want ≈ 0.20", rate)
	}
	// Decorrelated from the transient stream: the corruption plan and
	// the attempt-1 transient coins over the same keys must not agree
	// suspiciously often (independent 0.2-coins agree ≈ 68%).
	agree := 0
	for bucket := 0; bucket < 2000; bucket++ {
		c := in.PageCorrupt(0, bucket, 1)
		tr := coin(11, 0, bucket, 1) < 0.2
		if c == tr {
			agree++
		}
	}
	if agree > 1600 || agree < 800 {
		t.Errorf("corruption and transient streams correlate: %d/2000 agreements", agree)
	}
	if err := in.SetCorruptProb(1.5); err == nil {
		t.Error("SetCorruptProb(1.5) accepted")
	}
	if err := in.SetCorruptProb(0); err != nil {
		t.Fatal(err)
	}
	for bucket := 0; bucket < 500; bucket++ {
		if in.PageCorrupt(0, bucket, 0) {
			t.Fatal("probability 0 still corrupts pages")
		}
	}
}

func TestCoinUniform(t *testing.T) {
	// Coarse uniformity: deciles of the coin over many keys.
	var counts [10]int
	n := 20000
	for i := 0; i < n; i++ {
		c := coin(9, i%7, i, 1+i%3)
		if c < 0 || c >= 1 {
			t.Fatalf("coin out of range: %v", c)
		}
		counts[int(c*10)]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-float64(n)/10) > float64(n)/10*0.15 {
			t.Errorf("decile %d count %d deviates from uniform %d", d, c, n/10)
		}
	}
}

func ExampleInjector_CheckRead() {
	in, _ := New(Config{Seed: 1, FailDisks: []int{2}})
	fmt.Println(in.CheckRead(2, 5, 1))
	fmt.Println(in.CheckRead(0, 5, 1))
	// Output:
	// fault: disk 2 is failed (fail-stop)
	// <nil>
}
