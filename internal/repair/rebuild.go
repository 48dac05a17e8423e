package repair

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

// rebuildMetrics holds the rebuilder's pre-resolved counters (nil when
// observation is disabled).
type rebuildMetrics struct {
	rebuilds, buckets, pages, sheds *obs.Counter
}

// RebuildReport summarizes one disk rebuild.
type RebuildReport struct {
	// Disk is the rebuilt disk.
	Disk int
	// Buckets and Pages count the copies reconstructed onto it.
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
	m     *rebuildMetrics
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
	if cfg.Parallel == 0 {
		cfg.Parallel = 1
	}
	tb, err := NewThrottle(cfg.PagesPerSec, cfg.Burst)
	if err != nil {
		return nil, err
	}
	r := &Rebuilder{store: store, sched: sched, inj: inj, cfg: cfg, tb: tb}
	if cfg.Obs != nil {
		reg := cfg.Obs.Registry()
		r.m = &rebuildMetrics{
			rebuilds: reg.Counter("repair.rebuild.completed"),
			buckets:  reg.Counter("repair.rebuild.buckets"),
			pages:    reg.Counter("repair.rebuild.pages"),
			sheds:    reg.Counter("repair.rebuild.sheds"),
		}
		tb.AttachObserver(cfg.Obs, "repair.rebuild.throttle.tokens")
	}
	return r, nil
}

// Rebuild reconstructs disk's lost bucket copies and returns it to
// service. The disk must be permanently failed (fault.FailPermanent);
// Rebuild drops any copies it still nominally holds (media loss), then
// for each missing bucket reads the surviving replica — through the
// scheduler at background priority when one is attached — and streams
// the copy onto the replacement disk under the throttle. When every
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
	rep := &RebuildReport{Disk: disk}
	missing := r.store.MissingOn(disk)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	buckets := make(chan int)
	workers := r.cfg.Parallel
	if workers > len(missing) {
		workers = max(1, len(missing))
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range buckets {
				pages := r.store.BucketPages(b)
				weight := float64(pages)
				if weight < 1 {
					weight = 1 // empty buckets still cost one admission round
				}
				if err := r.tb.Take(wctx, weight); err != nil {
					r.fail(&mu, &firstErr, cancel, err)
					return
				}
				recs, sheds, err := r.readSurvivor(wctx, b)
				mu.Lock()
				rep.Sheds += sheds
				mu.Unlock()
				if r.m != nil {
					r.m.sheds.Add(uint64(sheds))
				}
				if err != nil {
					r.fail(&mu, &firstErr, cancel,
						fmt.Errorf("repair: rebuild of disk %d stalled at bucket %d: %w", disk, b, err))
					return
				}
				if err := r.store.AddCopy(disk, b, recs); err != nil {
					r.fail(&mu, &firstErr, cancel, err)
					return
				}
				mu.Lock()
				rep.Buckets++
				rep.Pages += pages
				mu.Unlock()
				if r.m != nil {
					r.m.buckets.Inc()
					r.m.pages.Add(uint64(pages))
				}
			}
		}()
	}
feed:
	for _, b := range missing {
		select {
		case buckets <- b:
		case <-wctx.Done():
			break feed
		}
	}
	close(buckets)
	wg.Wait()
	if firstErr == nil && rep.Buckets < len(missing) {
		// ctx ended before the last bucket landed: the disk stays failed.
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		rep.Elapsed = time.Since(start)
		return rep, firstErr
	}
	r.inj.ReplaceDisk(disk)
	if r.cfg.Tracker != nil {
		r.cfg.Tracker.Set(disk, StateHealthy)
	}
	if r.m != nil {
		r.m.rebuilds.Inc()
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// fail records the first worker error and cancels the rebuild.
func (r *Rebuilder) fail(mu *sync.Mutex, firstErr *error, cancel context.CancelFunc, err error) {
	mu.Lock()
	if *firstErr == nil {
		*firstErr = err
	}
	mu.Unlock()
	cancel()
}

// readSurvivor reads bucket b's records from a surviving replica:
// through the scheduler at BackgroundPriority (retrying shed
// reads, shedBackoff apart) when one is attached, else
// directly from a clean live copy in the store.
func (r *Rebuilder) readSurvivor(ctx context.Context, b int) ([]datagen.Record, int, error) {
	if r.sched == nil {
		if recs, ok := cleanSibling(r.store, r.inj, b, -1); ok {
			return recs, 0, nil
		}
		return nil, 0, fmt.Errorf("repair: no clean surviving copy of bucket %d", b)
	}
	g := r.store.Grid()
	c := g.Delinearize(b, nil)
	q := serve.Query{Rect: grid.Rect{Lo: c, Hi: c}, Priority: BackgroundPriority}
	sheds := 0
	for {
		res, err := r.sched.Do(ctx, q)
		if err == nil {
			return res.Records, sheds, nil
		}
		if !errors.Is(err, serve.ErrOverloaded) {
			return nil, sheds, err
		}
		sheds++
		if err := shedBackoff.Wait(ctx, sheds); err != nil {
			return nil, sheds, err
		}
	}
}
