package repair

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"decluster/internal/fault"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
)

// ScrubConfig tunes a Scrubber.
type ScrubConfig struct {
	// Tracker optionally records per-disk repair states as the sweep
	// finds (and clears) corruption.
	Tracker *Tracker
	// Faults optionally names fail-stop disks: their copies are skipped
	// (a failed disk serves no reads, scrub or otherwise) and they are
	// never used as repair sources.
	Faults *fault.Injector
	// Obs optionally receives scrub metrics (sweep, page and corruption
	// counters) in its registry.
	Obs *obs.Sink
}

// scrubMetrics holds the scrubber's pre-resolved counters (nil when
// observation is disabled).
type scrubMetrics struct {
	sweeps, pages, corrupt, repaired, unrepairable *obs.Counter
}

// ScrubReport summarizes one sweep.
type ScrubReport struct {
	// PagesScanned counts pages whose checksum was verified.
	PagesScanned int
	// CorruptFound counts copies that failed verification.
	CorruptFound int
	// Repaired counts corrupt copies rewritten from a clean sibling.
	Repaired int
	// Unrepairable counts corrupt copies with no clean live sibling to
	// repair from.
	Unrepairable int
	// SkippedDisks lists fail-stop disks whose copies were not scanned,
	// ascending.
	SkippedDisks []int
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// Scrubber sweeps the store's bucket copies, verifying checksums and
// repairing corrupt copies from clean siblings. One sweep is RunOnce;
// callers loop it (or run it under a ticker) for continuous scrubbing.
// A sweep is unpaced: it reads the store directly, not through a
// scheduler, so it competes with no admission queue.
type Scrubber struct {
	store *gridfile.Store
	cfg   ScrubConfig
	m     *scrubMetrics
}

// NewScrubber builds a scrubber over the store (required).
func NewScrubber(s *gridfile.Store, cfg ScrubConfig) (*Scrubber, error) {
	if s == nil {
		return nil, fmt.Errorf("repair: nil store")
	}
	sc := &Scrubber{store: s, cfg: cfg}
	if cfg.Obs != nil {
		r := cfg.Obs.Registry()
		sc.m = &scrubMetrics{
			sweeps:       r.Counter("repair.scrub.sweeps"),
			pages:        r.Counter("repair.scrub.pages"),
			corrupt:      r.Counter("repair.scrub.corrupt"),
			repaired:     r.Counter("repair.scrub.repaired"),
			unrepairable: r.Counter("repair.scrub.unrepairable"),
		}
	}
	return sc, nil
}

// RunOnce sweeps every stored copy once. It verifies page checksums,
// repairs corrupt copies from a clean live sibling, and updates the
// tracker: a disk with corruption found goes suspect; a previously
// suspect disk whose sweep comes back clean returns to healthy. The
// sweep checks ctx before each copy: an ended context stops it with the
// partial report and ctx's error, and a partial sweep clears no
// suspect disk.
func (sc *Scrubber) RunOnce(ctx context.Context) (*ScrubReport, error) {
	start := time.Now()
	rep := &ScrubReport{}
	skipped := map[int]bool{}
	dirty := map[int]bool{}   // disks with corruption found this sweep
	scanned := map[int]bool{} // disks with at least one copy verified
	for b := 0; b < sc.store.Grid().Buckets(); b++ {
		pages := sc.store.BucketPages(b)
		if pages == 0 {
			continue
		}
		for _, d := range sc.store.Holders(b) {
			if !sc.store.HasCopy(d, b) {
				continue // dropped disk: the rebuilder's job, not ours
			}
			if sc.cfg.Faults != nil && sc.cfg.Faults.DiskFailed(d) {
				skipped[d] = true
				continue
			}
			if err := ctx.Err(); err != nil {
				rep.Elapsed = time.Since(start)
				return rep, err
			}
			rep.PagesScanned += pages
			if sc.m != nil {
				sc.m.pages.Add(uint64(pages))
			}
			scanned[d] = true
			if _, err := sc.store.ReadVerified(d, b); err != nil {
				if !errors.Is(err, gridfile.ErrCorrupt) {
					rep.Elapsed = time.Since(start)
					return rep, err
				}
				rep.CorruptFound++
				dirty[d] = true
				if sc.m != nil {
					sc.m.corrupt.Inc()
				}
				if sc.cfg.Tracker != nil {
					sc.cfg.Tracker.Suspect(d)
				}
				if recs, ok := cleanSibling(sc.store, sc.cfg.Faults, b, d); ok {
					sc.store.Repair(d, b, recs)
					rep.Repaired++
					if sc.m != nil {
						sc.m.repaired.Inc()
					}
				} else {
					rep.Unrepairable++
					if sc.m != nil {
						sc.m.unrepairable.Inc()
					}
				}
			}
		}
	}
	for d := range skipped {
		rep.SkippedDisks = append(rep.SkippedDisks, d)
	}
	sort.Ints(rep.SkippedDisks)
	if sc.cfg.Tracker != nil {
		// A fully clean sweep of a suspect disk clears the suspicion;
		// repaired-this-sweep disks stay suspect until the next sweep
		// confirms them clean.
		for d := range scanned {
			if !dirty[d] && sc.cfg.Tracker.Get(d) == StateSuspect {
				sc.cfg.Tracker.Set(d, StateHealthy)
			}
		}
	}
	if sc.m != nil {
		sc.m.sweeps.Inc()
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
