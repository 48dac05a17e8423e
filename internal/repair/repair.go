// Package repair closes the durability loop over the checksummed
// physical store (gridfile.Store): it detects silent corruption, fixes
// it from surviving replicas, and restores two-copy redundancy after a
// permanent disk loss — online, while the serving layer keeps answering
// foreground queries.
//
// Three cooperating mechanisms:
//
//   - Scrubber: a sweep over every stored bucket copy, verifying page
//     checksums and repairing mismatches from a clean sibling replica.
//     It is unpaced: it reads the store directly, through no admission
//     queue.
//
//   - ReadRepairer: an exec.BucketReader wrapper (attach with
//     serve.WithReadWrapper or exec.WithReadWrapper) that catches a
//     foreground read's checksum mismatch, reads the surviving replica,
//     writes the clean bytes back over the rotten copy, and returns them
//     to the query — the read that found the rot also fixed it.
//
//   - Rebuilder: after a permanent disk loss (fault.FailPermanent +
//     Store.DropDisk), reconstructs every lost bucket copy from its
//     surviving replica onto the replacement disk, issuing its replica
//     reads through the serving scheduler at background priority and
//     pacing them with a token-bucket throttle, so foreground queries
//     keep their SLO while redundancy is restored. When the last bucket
//     lands it returns the disk to service (fault.ReplaceDisk). Its
//     copy loop, Copy, also refills a cluster node and migrates buckets.
//
// A Tracker records the per-disk repair state machine the DESIGN doc
// describes: healthy → suspect (corruption seen) → rebuilding → healthy.
package repair

import (
	"fmt"
	"sort"
	"sync"

	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
)

// State is one disk's position in the repair lifecycle.
type State int

// Repair states. Transitions: Healthy → Suspect on an observed checksum
// mismatch; Suspect → Healthy when a scrub pass leaves the disk clean;
// any → Rebuilding when a rebuild starts after permanent loss;
// Rebuilding → Healthy when the rebuild completes.
const (
	StateHealthy State = iota
	StateSuspect
	StateRebuilding
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateRebuilding:
		return "rebuilding"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Tracker records per-disk repair states. The zero value is ready to
// use; all methods are safe for concurrent use. Scrubber, ReadRepairer,
// and Rebuilder drive its transitions when one is attached.
type Tracker struct {
	mu     sync.Mutex
	states map[int]State
	// quarantines counts healthy → suspect transitions; nil (no-op)
	// until AttachObserver.
	quarantines *obs.Counter
}

// AttachObserver registers the tracker's quarantine counter
// (repair.quarantines: disks newly marked suspect) in the sink's
// registry. A nil sink is a no-op.
func (t *Tracker) AttachObserver(s *obs.Sink) {
	if t == nil || s == nil {
		return
	}
	c := s.Registry().Counter("repair.quarantines")
	t.mu.Lock()
	t.quarantines = c
	t.mu.Unlock()
}

// Get returns disk d's state (StateHealthy when never reported).
func (t *Tracker) Get(d int) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.states[d]
}

// Set records disk d's state.
func (t *Tracker) Set(d int, s State) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.states == nil {
		t.states = make(map[int]State)
	}
	if s == StateHealthy {
		delete(t.states, d)
		return
	}
	t.states[d] = s
}

// Suspect marks disk d suspect unless it is already rebuilding — a
// mid-rebuild mismatch on another copy must not demote the state.
func (t *Tracker) Suspect(d int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.states == nil {
		t.states = make(map[int]State)
	}
	switch t.states[d] {
	case StateRebuilding: // a mid-rebuild mismatch must not demote the state
	case StateSuspect: // already quarantined
	default:
		t.quarantines.Inc()
		t.states[d] = StateSuspect
	}
}

// NonHealthy returns the disks not in StateHealthy, ascending.
func (t *Tracker) NonHealthy() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.states))
	for d := range t.states {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// cleanSibling reads bucket b from its first copy that can serve a
// repair: a holder other than disk skip, still holding a copy, not
// failed under inj (nil: none failed), and verifying clean end to end.
// It reports false when no such copy exists.
func cleanSibling(s *gridfile.Store, inj *fault.Injector, b, skip int) ([]datagen.Record, bool) {
	for _, d := range s.Holders(b) {
		if d == skip || !s.HasCopy(d, b) || (inj != nil && inj.DiskFailed(d)) {
			continue
		}
		if recs, err := s.ReadVerified(d, b); err == nil {
			return recs, true
		}
	}
	return nil, false
}

// SeedCorruption applies an injector's seeded corruption plan
// (fault.PageCorrupt) to the store: every stored page the plan names is
// rotted in place. It keeps at least one *fully clean* copy of every
// bucket — repairs rewrite whole bucket copies from a sibling that
// verifies clean end to end, so losing every clean copy of a bucket is
// the data-loss regime, out of scope for a repair subsystem whose job
// is to fix what a surviving replica can still supply. It returns the
// number of pages corrupted.
func SeedCorruption(s *gridfile.Store, inj *fault.Injector) int {
	corrupted := 0
	for b := 0; b < s.Grid().Buckets(); b++ {
		pages := s.BucketPages(b)
		if pages == 0 {
			continue
		}
		cleanCopies := 0
		for _, d := range s.Holders(b) {
			if s.HasCopy(d, b) {
				cleanCopies++
			}
		}
		for _, d := range s.Holders(b) {
			if !s.HasCopy(d, b) {
				continue
			}
			var planned []int
			for p := 0; p < pages; p++ {
				if inj.PageCorrupt(d, b, p) {
					planned = append(planned, p)
				}
			}
			if len(planned) == 0 || cleanCopies <= 1 {
				continue // keep the last clean copy of this bucket intact
			}
			for _, p := range planned {
				if s.Corrupt(d, b, p) {
					corrupted++
				}
			}
			cleanCopies--
		}
	}
	return corrupted
}
