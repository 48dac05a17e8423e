package decluster

import (
	"context"
	"time"

	"decluster/internal/exec"
	"decluster/internal/gridfile"
	"decluster/internal/repair"
	"decluster/internal/serve"
)

// Store is the checksummed physical layer: per-disk bucket copies with
// per-page checksums verified on every read, supporting corruption
// injection, repair, and disk drop/rebuild cycles.
type Store = gridfile.Store

// CorruptPageError reports a page whose checksum failed verification.
type CorruptPageError = gridfile.CorruptError

// ErrCorruptPage matches checksum-mismatch read errors with errors.Is.
var ErrCorruptPage = gridfile.ErrCorrupt

// NewReplicaStore materializes a grid file onto a checksummed two-copy
// physical store: every bucket is stored on its primary and backup disk
// under the replica scheme.
func NewReplicaStore(f *GridFile, rep *Replicated) (*Store, error) {
	return gridfile.NewStore(f, rep.Holders)
}

// StoreReader reads buckets from a checksummed store, verifying page
// checksums on every read. Attach with WithServeReader so queries
// observe — and with read-repair, fix — silent corruption.
func StoreReader(s *Store) BucketReader { return exec.NewStoreReader(s) }

// RepairState is one disk's position in the repair lifecycle:
// healthy → suspect → rebuilding → healthy.
type RepairState = repair.State

// Repair lifecycle states.
const (
	RepairHealthy    = repair.StateHealthy
	RepairSuspect    = repair.StateSuspect
	RepairRebuilding = repair.StateRebuilding
)

// RepairTracker records per-disk repair states; its zero value is ready
// to use and safe for concurrent use.
type RepairTracker = repair.Tracker

// Scrubber sweeps stored bucket copies verifying checksums and
// repairing mismatches from a clean sibling replica.
type Scrubber = repair.Scrubber

// ScrubConfig sets a Scrubber's tracker, fault awareness, and metrics
// sink; a sweep is unpaced.
type ScrubConfig = repair.ScrubConfig

// ScrubReport summarizes one scrub sweep.
type ScrubReport = repair.ScrubReport

// NewScrubber builds a corruption scrubber over a checksummed store.
func NewScrubber(s *Store, cfg ScrubConfig) (*Scrubber, error) {
	return repair.NewScrubber(s, cfg)
}

// Scrub runs one full scrub sweep: every stored copy verified,
// mismatches repaired from surviving replicas. An ended ctx stops it
// with the partial report.
func Scrub(ctx context.Context, s *Store, inj *FaultInjector) (*ScrubReport, error) {
	sc, err := repair.NewScrubber(s, repair.ScrubConfig{Faults: inj})
	if err != nil {
		return nil, err
	}
	return sc.RunOnce(ctx)
}

// ReadRepairer wraps a bucket reader so a foreground read that hits a
// checksum mismatch repairs the rotten copy from the surviving replica
// and returns the clean records — attach its Wrap with WithReadRepair.
type ReadRepairer = repair.ReadRepairer

// NewReadRepairer builds an inline read-repairer over a store. tracker
// and inj may be nil.
func NewReadRepairer(s *Store, tracker *RepairTracker, inj *FaultInjector) *ReadRepairer {
	return repair.NewReadRepairer(s, tracker, inj)
}

// WithReadRepair attaches inline read-repair to a serving scheduler:
// foreground reads that observe corruption fix it in passing.
func WithReadRepair(rr *ReadRepairer) ServeOption { return serve.WithReadWrapper(rr.Wrap) }

// Rebuilder reconstructs a permanently failed disk's bucket copies from
// surviving replicas, throttled and admitted at background priority
// when a scheduler is attached.
type Rebuilder = repair.Rebuilder

// RebuildConfig tunes a rebuild: throttle, parallelism, state tracking,
// and metrics. Reads are always admitted at RebuildBackgroundPriority.
type RebuildConfig = repair.RebuildConfig

// RebuildReport summarizes one disk rebuild, including the elapsed
// mean-time-to-repair.
type RebuildReport = repair.RebuildReport

// RebuildBackgroundPriority is the admission priority of rebuild reads
// — far below foreground, so overload sheds rebuild traffic first.
const RebuildBackgroundPriority = repair.BackgroundPriority

// NewRebuilder builds a rebuild engine. sched may be nil for direct
// store reads.
func NewRebuilder(s *Store, sched *Scheduler, inj *FaultInjector, cfg RebuildConfig) (*Rebuilder, error) {
	return repair.NewRebuilder(s, sched, inj, cfg)
}

// Rebuild reconstructs a permanently failed disk with default pacing
// (unthrottled, background priority) and returns it to service. A ctx
// that ends first fails it and leaves the disk failed.
func Rebuild(ctx context.Context, s *Store, sched *Scheduler, inj *FaultInjector, disk int) (*RebuildReport, error) {
	rb, err := repair.NewRebuilder(s, sched, inj, repair.RebuildConfig{})
	if err != nil {
		return nil, err
	}
	return rb.Rebuild(ctx, disk)
}

// SeedCorruption applies an injector's seeded per-page corruption plan
// to a store, keeping at least one fully clean copy of every bucket.
// It returns the number of pages corrupted.
func SeedCorruption(s *Store, inj *FaultInjector) int {
	return repair.SeedCorruption(s, inj)
}

// ServeWarnings returns non-fatal configuration warnings a scheduler
// accumulated at construction (e.g. a base latency clamped up to the
// host's measurable timer floor).
func ServeWarnings(s *Scheduler) []string { return s.Warnings() }

// TimerFloor is the smallest sleep the host's timers can actually
// deliver; simulated latencies below it are clamped up to it.
func TimerFloor() time.Duration { return serve.TimerFloor() }
