// Package fault implements deterministic, seeded fault injection for
// the multi-disk execution stack. It models the failure classes a
// parallel I/O practitioner asks about first:
//
//   - fail-stop disks: a disk stops serving reads entirely — either
//     transiently (RecoverDisk brings it back) or permanently
//     (FailPermanent: the disk and its data are gone until a rebuild
//     engine reconstructs it and calls ReplaceDisk);
//   - transient read errors: an individual bucket read fails with a
//     configurable probability but succeeds when retried;
//   - stragglers: a disk keeps serving but at a latency multiple;
//   - silent corruption: a per-page probability that a stored page's
//     bytes rot in place — surfaced only when a checksum-verifying
//     store reads the page (see gridfile.Store and package repair).
//
// All decisions are pure functions of (seed, disk, bucket, attempt) —
// or (seed, disk, bucket, page) for corruption — so a run with a fixed
// seed injects exactly the same faults regardless of goroutine
// scheduling: failures are reproducible, which makes the degraded-mode
// and recovery experiments and the retry/failover tests deterministic.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"decluster/internal/obs"
)

// Sentinel errors for errors.Is classification. The concrete typed
// errors below all match their sentinel.
var (
	// ErrDiskFailed classifies fail-stop disk errors.
	ErrDiskFailed = errors.New("fault: disk failed")
	// ErrTransient classifies retryable per-read errors.
	ErrTransient = errors.New("fault: transient read error")
	// ErrUnavailable classifies queries that cannot be answered
	// correctly because buckets are unreachable on every replica.
	ErrUnavailable = errors.New("fault: buckets unavailable")
)

// DiskFailedError reports a read against a fail-stop disk.
type DiskFailedError struct {
	Disk int
}

// Error describes the failure.
func (e *DiskFailedError) Error() string {
	return fmt.Sprintf("fault: disk %d is failed (fail-stop)", e.Disk)
}

// Is matches ErrDiskFailed.
func (e *DiskFailedError) Is(target error) bool { return target == ErrDiskFailed }

// TransientError reports a retryable read failure of one bucket.
type TransientError struct {
	Disk    int
	Bucket  int
	Attempt int // 1-based attempt number that failed
}

// Error describes the failure.
func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: transient read error on disk %d bucket %d (attempt %d)", e.Disk, e.Bucket, e.Attempt)
}

// Is matches ErrTransient.
func (e *TransientError) Is(target error) bool { return target == ErrTransient }

// UnavailableError reports that a query cannot be answered: the listed
// buckets live only on failed disks, so returning partial results would
// be silently wrong. Callers detect it with
// errors.Is(err, ErrUnavailable) or errors.As.
type UnavailableError struct {
	// Buckets are the unreachable row-major bucket numbers, ascending.
	Buckets []int
	// FailedDisks are the fail-stop disks responsible, ascending.
	FailedDisks []int
}

// Error lists the unreachable buckets and the disks that took them down.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("fault: %d bucket(s) unavailable (buckets %v on failed disks %v)",
		len(e.Buckets), e.Buckets, e.FailedDisks)
}

// Is matches ErrUnavailable.
func (e *UnavailableError) Is(target error) bool { return target == ErrUnavailable }

// Config describes an injection scenario.
type Config struct {
	// Seed drives every probabilistic decision; runs with equal seeds
	// inject identical faults.
	Seed int64
	// FailDisks lists fail-stop disks (duplicates allowed, order
	// irrelevant). Disk numbers must be non-negative.
	FailDisks []int
	// TransientProb is the probability in [0, 1) that any single bucket
	// read attempt fails with a TransientError.
	TransientProb float64
	// CorruptProb is the probability in [0, 1) that any single stored
	// page is silently corrupted by the seeded corruption plan
	// (PageCorrupt). Corruption is a property of stored bytes, not of
	// reads: it is applied to a checksummed store once (e.g. by
	// repair.SeedCorruption) and persists until repaired.
	CorruptProb float64
	// Stragglers maps disk → service-time latency multiplier (≥ 1).
	Stragglers map[int]float64
}

// Injector injects the configured faults. It is safe for concurrent use
// by the executor's disk workers, and its mutable state — the fail-stop
// set, straggler multipliers, and transient probability — may be
// changed at any time, including while queries are in flight.
//
// Locking contract: every mutation (FailDisk, RecoverDisk, FlipDisks,
// SetSlowFactor, SetTransientProb) takes the single injector write
// lock, and every observation (CheckRead, DiskFailed, FailedSet,
// Snapshot, …) takes the read lock, so each call sees a consistent
// state. FlipDisks applies its whole fail+recover batch under one
// critical section: no concurrent reader ever observes the batch half
// applied, which is what lets a chaos driver swap failures between
// disks without transiently exposing both (or neither) as failed.
// Sequencing between *separate* calls is whatever the goroutine
// schedule says — callers that need a multi-call protocol must
// serialize those calls themselves.
type Injector struct {
	mu        sync.RWMutex
	seed      int64
	prob      float64
	corrupt   float64
	failed    map[int]bool
	permanent map[int]bool
	slow      map[int]float64
	// Injected-event counters by class; nil (no-op) until
	// AttachObserver. Written under mu, incremented under RLock — the
	// counters themselves are atomic.
	obsFailstop, obsTransient  *obs.Counter
	obsFailures, obsRecoveries *obs.Counter
}

// AttachObserver registers injected-event counters in the sink's
// registry and starts counting:
//
//	fault.injected.failstop    reads refused because the disk is fail-stop
//	fault.injected.transient   reads failed with a transient error
//	fault.disk.failures        healthy → fail-stop disk transitions
//	fault.disk.recoveries      fail-stop → healthy disk transitions
//
// A nil sink (or nil injector) is a no-op.
func (in *Injector) AttachObserver(s *obs.Sink) {
	if in == nil || s == nil {
		return
	}
	r := s.Registry()
	in.mu.Lock()
	defer in.mu.Unlock()
	in.obsFailstop = r.Counter("fault.injected.failstop")
	in.obsTransient = r.Counter("fault.injected.transient")
	in.obsFailures = r.Counter("fault.disk.failures")
	in.obsRecoveries = r.Counter("fault.disk.recoveries")
}

// New validates the configuration and builds an injector.
func New(cfg Config) (*Injector, error) {
	// Every probability is checked as !(0 <= p < 1) and every factor as
	// !(1 <= f < +Inf), which refuse NaN too.
	if !(cfg.TransientProb >= 0 && cfg.TransientProb < 1) {
		return nil, fmt.Errorf("fault: transient probability %v outside [0,1)", cfg.TransientProb)
	}
	if !(cfg.CorruptProb >= 0 && cfg.CorruptProb < 1) {
		return nil, fmt.Errorf("fault: corruption probability %v outside [0,1)", cfg.CorruptProb)
	}
	in := &Injector{
		seed:      cfg.Seed,
		prob:      cfg.TransientProb,
		corrupt:   cfg.CorruptProb,
		failed:    make(map[int]bool),
		permanent: make(map[int]bool),
		slow:      make(map[int]float64),
	}
	for _, d := range cfg.FailDisks {
		if d < 0 {
			return nil, fmt.Errorf("fault: negative disk %d in FailDisks", d)
		}
		in.failed[d] = true
	}
	for d, f := range cfg.Stragglers {
		if d < 0 {
			return nil, fmt.Errorf("fault: negative straggler disk %d", d)
		}
		if !(f >= 1 && f < math.Inf(1)) {
			return nil, fmt.Errorf("fault: straggler multiplier %v on disk %d not a finite factor ≥ 1", f, d)
		}
		in.slow[d] = f
	}
	return in, nil
}

// Seed returns the injection seed.
func (in *Injector) Seed() int64 { return in.seed }

// TransientProb returns the per-read transient failure probability.
func (in *Injector) TransientProb() float64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.prob
}

// SetTransientProb changes the per-read transient failure probability,
// e.g. to ramp fault pressure mid-run during a chaos drill. It rejects
// probabilities outside [0, 1).
func (in *Injector) SetTransientProb(p float64) error {
	if !(p >= 0 && p < 1) {
		return fmt.Errorf("fault: transient probability %v outside [0,1)", p)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.prob = p
	return nil
}

// CorruptProb returns the per-page corruption probability.
func (in *Injector) CorruptProb() float64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.corrupt
}

// SetCorruptProb changes the per-page corruption probability. It
// rejects probabilities outside [0, 1).
func (in *Injector) SetCorruptProb(p float64) error {
	if !(p >= 0 && p < 1) {
		return fmt.Errorf("fault: corruption probability %v outside [0,1)", p)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.corrupt = p
	return nil
}

// PageCorrupt reports whether the seeded corruption plan rots page p of
// bucket b's copy on disk d: a pure hash of (seed, disk, bucket, page)
// against CorruptProb, independent of the transient-read coin stream.
// Callers (repair.SeedCorruption) apply the plan to a checksummed store
// once; the rot then persists until a scrubber or read-repair fixes it.
func (in *Injector) PageCorrupt(disk, bucket, page int) bool {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.corrupt > 0 && corruptCoin(in.seed, disk, bucket, page) < in.corrupt
}

// FailDisk marks disk d fail-stop (transiently: RecoverDisk undoes it).
func (in *Injector) FailDisk(d int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.failed[d] {
		in.obsFailures.Inc()
	}
	in.failed[d] = true
}

// FailPermanent marks disk d fail-stop permanently: the disk and the
// data it held are gone. Unlike a transient fail-stop, a permanent
// failure is not cleared by RecoverDisk (or a FlipDisks recover batch);
// only ReplaceDisk — called by a rebuild engine once the replacement
// disk holds reconstructed copies — returns it to service.
func (in *Injector) FailPermanent(d int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.failed[d] {
		in.obsFailures.Inc()
	}
	in.failed[d] = true
	in.permanent[d] = true
}

// PermanentlyFailed reports whether disk d is permanently failed.
func (in *Injector) PermanentlyFailed(d int) bool {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.permanent[d]
}

// PermanentDisks returns the permanently failed disks, ascending.
func (in *Injector) PermanentDisks() []int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]int, 0, len(in.permanent))
	for d := range in.permanent {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// ReplaceDisk clears both the fail-stop and the permanent state of disk
// d — the rebuild engine's "replacement disk is populated and serving"
// transition. It is also safe on transiently failed disks, where it
// behaves like RecoverDisk.
func (in *Injector) ReplaceDisk(d int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.failed[d] {
		in.obsRecoveries.Inc()
	}
	delete(in.failed, d)
	delete(in.permanent, d)
}

// RecoverDisk clears the transient fail-stop state of disk d.
// Permanently failed disks stay failed: their data is gone, so only a
// rebuild (ReplaceDisk) may return them to service.
func (in *Injector) RecoverDisk(d int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.permanent[d] {
		return
	}
	if in.failed[d] {
		in.obsRecoveries.Inc()
	}
	delete(in.failed, d)
}

// FlipDisks atomically applies a batch of fail-stop transitions: every
// disk in fail is marked failed and every disk in recover is cleared,
// under a single critical section. Recoveries are applied after
// failures, so a disk listed in both ends up recovered. Concurrent
// readers (CheckRead, FailedSet, Snapshot) see either the state before
// the whole batch or after it — never a partial application — which
// makes mid-flight fail/recover swaps during a soak run race-safe.
func (in *Injector) FlipDisks(fail, recover []int) error {
	for _, d := range fail {
		if d < 0 {
			return fmt.Errorf("fault: negative disk %d in fail batch", d)
		}
	}
	for _, d := range recover {
		if d < 0 {
			return fmt.Errorf("fault: negative disk %d in recover batch", d)
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, d := range fail {
		if !in.failed[d] {
			in.obsFailures.Inc()
		}
		in.failed[d] = true
	}
	for _, d := range recover {
		if in.permanent[d] {
			continue // permanent failures outlive recover batches
		}
		if in.failed[d] {
			in.obsRecoveries.Inc()
		}
		delete(in.failed, d)
	}
	return nil
}

// Snapshot is a consistent copy of the injector's mutable state.
type Snapshot struct {
	// Seed is the (immutable) injection seed.
	Seed int64
	// TransientProb is the current per-read transient probability.
	TransientProb float64
	// CorruptProb is the current per-page corruption probability.
	CorruptProb float64
	// FailedDisks lists the fail-stop disks, ascending (permanent
	// failures included).
	FailedDisks []int
	// PermanentDisks lists the permanently failed disks, ascending.
	PermanentDisks []int
	// Stragglers maps disk → latency multiplier for every disk whose
	// multiplier exceeds 1.
	Stragglers map[int]float64
}

// Snapshot returns a point-in-time copy of the injector state, taken
// under one read lock so the failed set, straggler map, and transient
// probability are mutually consistent even while a chaos driver is
// flipping them.
func (in *Injector) Snapshot() Snapshot {
	in.mu.RLock()
	defer in.mu.RUnlock()
	s := Snapshot{
		Seed:           in.seed,
		TransientProb:  in.prob,
		CorruptProb:    in.corrupt,
		FailedDisks:    make([]int, 0, len(in.failed)),
		PermanentDisks: make([]int, 0, len(in.permanent)),
		Stragglers:     make(map[int]float64, len(in.slow)),
	}
	for d := range in.failed {
		s.FailedDisks = append(s.FailedDisks, d)
	}
	sort.Ints(s.FailedDisks)
	for d := range in.permanent {
		s.PermanentDisks = append(s.PermanentDisks, d)
	}
	sort.Ints(s.PermanentDisks)
	for d, f := range in.slow {
		s.Stragglers[d] = f
	}
	return s
}

// DiskFailed reports whether disk d is fail-stop.
func (in *Injector) DiskFailed(d int) bool {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.failed[d]
}

// FailedDisks returns the fail-stop disks in ascending order.
func (in *Injector) FailedDisks() []int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]int, 0, len(in.failed))
	for d := range in.failed {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// FailedSet returns a copy of the fail-stop disk set.
func (in *Injector) FailedSet() map[int]bool {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make(map[int]bool, len(in.failed))
	for d := range in.failed {
		out[d] = true
	}
	return out
}

// SlowFactor returns the latency multiplier of disk d (1 when the disk
// is not a straggler).
func (in *Injector) SlowFactor(d int) float64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if f, ok := in.slow[d]; ok {
		return f
	}
	return 1
}

// SetSlowFactor marks disk d a straggler with the given finite latency
// multiplier (≥ 1); 1 clears it.
func (in *Injector) SetSlowFactor(d int, f float64) error {
	if !(f >= 1 && f < math.Inf(1)) {
		return fmt.Errorf("fault: straggler multiplier %v not a finite factor ≥ 1", f)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if f == 1 {
		delete(in.slow, d)
	} else {
		in.slow[d] = f
	}
	return nil
}

// CheckRead decides the fate of the attempt-th read (1-based) of bucket
// b on disk d: nil for success, a *DiskFailedError when the disk is
// fail-stop, or a *TransientError with probability TransientProb. The
// transient decision is a pure hash of (seed, disk, bucket, attempt),
// so a retried read draws a fresh, reproducible coin.
func (in *Injector) CheckRead(disk, bucket, attempt int) error {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.failed[disk] {
		in.obsFailstop.Inc()
		return &DiskFailedError{Disk: disk}
	}
	if in.prob > 0 && coin(in.seed, disk, bucket, attempt) < in.prob {
		in.obsTransient.Inc()
		return &TransientError{Disk: disk, Bucket: bucket, Attempt: attempt}
	}
	return nil
}

// coin returns a uniform pseudo-random float64 in [0, 1) deterministic
// in its arguments, via two rounds of splitmix64 over the packed key.
func coin(seed int64, disk, bucket, attempt int) float64 {
	x := uint64(seed)
	x = splitmix64(x ^ uint64(disk)*0x9e3779b97f4a7c15)
	x = splitmix64(x ^ uint64(bucket)*0xbf58476d1ce4e5b9)
	x = splitmix64(x ^ uint64(attempt)*0x94d049bb133111eb)
	return float64(x>>11) / float64(1<<53)
}

// corruptCoin is coin for the corruption plan, domain-separated from
// the transient-read stream so the two fault classes draw independent
// randomness from one seed.
func corruptCoin(seed int64, disk, bucket, page int) float64 {
	x := splitmix64(uint64(seed) ^ 0xc0a2b7e1d94f3358)
	x = splitmix64(x ^ uint64(disk)*0x9e3779b97f4a7c15)
	x = splitmix64(x ^ uint64(bucket)*0xbf58476d1ce4e5b9)
	x = splitmix64(x ^ uint64(page)*0x94d049bb133111eb)
	return float64(x>>11) / float64(1<<53)
}

// splitmix64 is the finalizer of the SplitMix64 generator — a strong
// 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
