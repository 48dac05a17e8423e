package repair

import (
	"context"
	"errors"
	"fmt"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
	"decluster/internal/serve"
)

// shedBackoff paces the retries of a rebuild read shed by admission
// control: 200µs, doubling per consecutive shed up to 16×.
var shedBackoff = exec.RetryPolicy{BaseBackoff: 200 * time.Microsecond, MaxBackoff: 3200 * time.Microsecond}

// BackgroundPriority is the admission priority of rebuild reads: far
// below the default foreground priority (0), so a saturated
// scheduler sheds rebuild traffic first and foreground queries keep
// their SLO.
const BackgroundPriority = -1000

// RebuildConfig tunes a Rebuilder.
type RebuildConfig struct {
	// PagesPerSec throttles rebuild I/O (0 = unthrottled): the knob
	// trading MTTR against foreground latency.
	PagesPerSec float64
	// Burst is the throttle's token headroom (default: one second of
	// PagesPerSec).
	Burst float64
	// Parallel is the number of concurrent replica reads the rebuild
	// keeps in flight (default 1). More parallelism cuts MTTR when the
	// throttle allows it, at the price of more foreground contention.
	Parallel int
	// Tracker optionally records the disk's rebuilding → healthy
	// transitions.
	Tracker *Tracker
	// Obs optionally receives rebuild metrics (bucket/page/shed
	// counters and throttle tokens) in its registry.
	Obs *obs.Sink
}

// RebuildReport summarizes one disk rebuild.
type RebuildReport struct {
	// Disk is the rebuilt disk.
	Disk int
	// Buckets and Pages count the copies reconstructed onto it, an
	// empty bucket as the one page the throttle charges it.
	Buckets, Pages int
	// Sheds counts rebuild reads the scheduler shed (each was retried).
	Sheds int
	// Elapsed is the wall-clock rebuild time — the MTTR the recovery
	// experiment measures.
	Elapsed time.Duration
}

// Rebuilder reconstructs a permanently failed disk's bucket copies from
// their surviving replicas onto the replacement disk. With a scheduler
// attached, replica reads are admitted through it at background
// priority — competing honestly with foreground queries and backing off
// when shed; without one they read the store directly. Either way the
// token-bucket throttle paces the copy stream.
type Rebuilder struct {
	store *gridfile.Store
	sched *serve.Scheduler // optional
	inj   *fault.Injector
	cfg   RebuildConfig
	tb    *Throttle
}

// NewRebuilder builds a rebuild engine. sched may be nil (direct store
// reads); store and inj are required.
func NewRebuilder(store *gridfile.Store, sched *serve.Scheduler, inj *fault.Injector, cfg RebuildConfig) (*Rebuilder, error) {
	if store == nil {
		return nil, fmt.Errorf("repair: nil store")
	}
	if inj == nil {
		return nil, fmt.Errorf("repair: nil fault injector (rebuilds are driven by permanent failures)")
	}
	if cfg.Parallel < 0 {
		return nil, fmt.Errorf("repair: negative rebuild parallelism %d", cfg.Parallel)
	}
	tb, err := NewThrottle(cfg.PagesPerSec, cfg.Burst)
	if err != nil {
		return nil, err
	}
	tb.AttachObserver(cfg.Obs, "repair.rebuild.throttle.tokens")
	return &Rebuilder{store: store, sched: sched, inj: inj, cfg: cfg, tb: tb}, nil
}

// Rebuild reconstructs disk's lost bucket copies and returns it to
// service. The disk must be permanently failed (fault.FailPermanent);
// Rebuild drops any copies it still nominally holds (media loss), then
// Copy reads each missing bucket's surviving replica — through the
// scheduler at background priority when one is attached — and lands
// the copy on the replacement disk under the throttle. When every
// designated bucket is back, the injector's ReplaceDisk returns the
// disk to service and the tracker (if any) records it healthy again. A
// ctx that ends before then fails the rebuild with ctx's error and
// leaves the disk failed.
func (r *Rebuilder) Rebuild(ctx context.Context, disk int) (*RebuildReport, error) {
	if !r.inj.PermanentlyFailed(disk) {
		return nil, fmt.Errorf("repair: disk %d is not permanently failed; nothing to rebuild", disk)
	}
	start := time.Now()
	if r.cfg.Tracker != nil {
		r.cfg.Tracker.Set(disk, StateRebuilding)
	}
	r.store.DropDisk(disk)
	// One donor: the scheduler's failover, or the store's clean sibling.
	cp, err := Copy(ctx, r.store.MissingOn(disk), 1, r.readSurvivor,
		func(_ context.Context, b int, recs []datagen.Record) error { return r.store.AddCopy(disk, b, recs) },
		CopyConfig{Parallel: r.cfg.Parallel, Throttle: r.tb, Backoff: shedBackoff, PageCapacity: r.store.PageCapacity()})
	rep := &RebuildReport{Disk: disk, Buckets: cp.Buckets, Pages: cp.Pages, Sheds: cp.Retries}
	reg := r.cfg.Obs.Registry() // nil-safe down to the counters
	reg.Counter("repair.rebuild.buckets").Add(uint64(cp.Buckets))
	reg.Counter("repair.rebuild.pages").Add(uint64(cp.Pages))
	reg.Counter("repair.rebuild.sheds").Add(uint64(cp.Retries))
	if err != nil {
		rep.Elapsed = time.Since(start)
		return rep, fmt.Errorf("repair: rebuild of disk %d: %w", disk, err)
	}
	r.inj.ReplaceDisk(disk)
	if r.cfg.Tracker != nil {
		r.cfg.Tracker.Set(disk, StateHealthy)
	}
	reg.Counter("repair.rebuild.completed").Inc()
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// readSurvivor is the rebuild's fetch: bucket b's records from a
// surviving replica, read through the scheduler at BackgroundPriority
// (a shed read is Later) when one is attached, else directly from a
// clean live copy in the store.
func (r *Rebuilder) readSurvivor(ctx context.Context, b, _ int) ([]datagen.Record, error) {
	if r.sched == nil {
		if recs, ok := cleanSibling(r.store, r.inj, b, -1); ok {
			return recs, nil
		}
		return nil, fmt.Errorf("repair: no clean surviving copy of bucket %d", b)
	}
	c := r.store.Grid().Delinearize(b, nil)
	res, err := r.sched.Do(ctx, serve.Query{Rect: grid.Rect{Lo: c, Hi: c}, Priority: BackgroundPriority})
	if errors.Is(err, serve.ErrOverloaded) {
		return nil, Later(err)
	}
	if err != nil {
		return nil, err
	}
	return res.Records, nil
}
