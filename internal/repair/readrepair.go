package repair

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
)

// ReadRepairer turns foreground checksum mismatches into inline
// repairs: wrapped around a store-backed reader (exec.NewStoreReader),
// it catches a read's *gridfile.CorruptError, serves the records from a
// clean sibling replica, writes the clean bytes back over the rotten
// copy, and returns them to the query — which therefore succeeds. Only
// reads with no clean live sibling still fail.
//
// Attach it per executor with exec.WithReadWrapper(rr.Wrap) or per
// scheduler with serve.WithReadWrapper(rr.Wrap); one ReadRepairer may
// serve any number of concurrent queries.
type ReadRepairer struct {
	store   *gridfile.Store
	tracker *Tracker        // optional
	faults  *fault.Injector // optional: failed disks are not repair sources

	repairs  atomic.Int64
	failures atomic.Int64

	// obsRepairs / obsFailures mirror the atomics into a sink's
	// registry; nil (no-op) until Observe. obsSink gates trace spans.
	obsSink     *obs.Sink
	obsRepairs  *obs.Counter
	obsFailures *obs.Counter
}

// Observe registers the read-repairer's counters
// (repair.readrepair.repaired / repair.readrepair.failed) in the
// sink's registry and — when the sink traces — records a span per
// inline repair under the read's attempt span. Call it before serving
// traffic; a nil sink is a no-op.
func (rr *ReadRepairer) Observe(s *obs.Sink) {
	if rr == nil || s == nil {
		return
	}
	r := s.Registry()
	rr.obsSink = s
	rr.obsRepairs = r.Counter("repair.readrepair.repaired")
	rr.obsFailures = r.Counter("repair.readrepair.failed")
}

// NewReadRepairer builds a read-repairer over the store. tracker and
// inj may be nil.
func NewReadRepairer(s *gridfile.Store, tracker *Tracker, inj *fault.Injector) *ReadRepairer {
	return &ReadRepairer{store: s, tracker: tracker, faults: inj}
}

// Repairs returns the number of successful inline repairs.
func (rr *ReadRepairer) Repairs() int64 { return rr.repairs.Load() }

// Failures returns the number of corrupt reads no clean sibling could
// repair (the read's error was passed through).
func (rr *ReadRepairer) Failures() int64 { return rr.failures.Load() }

// Wrap returns inner with inline read-repair. The signature matches
// exec.WithReadWrapper and serve.WithReadWrapper.
func (rr *ReadRepairer) Wrap(inner exec.BucketReader) exec.BucketReader {
	return &repairingReader{rr: rr, inner: inner}
}

// repairingReader is the per-query wrapped reader.
type repairingReader struct {
	rr    *ReadRepairer
	inner exec.BucketReader
}

// ReadBucket delegates, repairing a corrupt read from a sibling copy.
func (r *repairingReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	recs, err := r.inner.ReadBucket(ctx, disk, bucket)
	var ce *gridfile.CorruptError
	if err == nil || !errors.As(err, &ce) {
		return recs, err
	}
	rr := r.rr
	if rr.tracker != nil {
		rr.tracker.Suspect(ce.Disk)
	}
	// Repair is the cold path, so span bookkeeping here costs the hot
	// path nothing.
	var sp *obs.Span
	if rr.obsSink.Tracing() {
		sp = obs.SpanFromContext(ctx).Child(fmt.Sprintf("read-repair d%d b%d", ce.Disk, ce.Bucket))
	}
	if clean, ok := cleanSibling(rr.store, rr.faults, ce.Bucket, ce.Disk); ok {
		rr.store.Repair(ce.Disk, ce.Bucket, clean)
		rr.repairs.Add(1)
		rr.obsRepairs.Inc()
		sp.Finish()
		return clean, nil
	}
	rr.failures.Add(1)
	rr.obsFailures.Inc()
	sp.FinishErr(err)
	return nil, err
}
