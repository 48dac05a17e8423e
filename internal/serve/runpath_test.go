package serve

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/obs"
	"decluster/internal/replica"
)

// faultyRun is a never-waiting base reader with a sick disk: its read of
// bucket once fails with fault.ErrTransient the first time, and every
// read of a bucket from failFrom on fails with fault.ErrDiskFailed (0:
// none), so a run in bucket order goes fail-stop mid-run. Both depend
// only on the bucket, not on how reads of the disk interleave.
type faultyRun struct {
	inner    exec.BucketReader
	disk     int
	once     int
	failFrom int

	failed atomic.Bool
}

func (r *faultyRun) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if disk == r.disk {
		if r.failFrom > 0 && bucket >= r.failFrom {
			return nil, fault.ErrDiskFailed
		}
		if bucket == r.once && r.failed.CompareAndSwap(false, true) {
			return nil, fault.ErrTransient
		}
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

func (r *faultyRun) NeverWaits() bool { return true }

// runBooking is what reading one run leaves behind in a scheduler.
type runBooking struct {
	pages       [][]int
	health      []DiskHealth
	hedges, won uint64
	legs, lat   uint64
}

// A stretch read through servedReader.ReadRun books what the same reads
// book one ReadBucket call at a time: the same pages, the same per-disk
// reads, errors and breaker state, the same failovers, legs and leg
// latency samples. The cases: a clean run, a transient error mid-run, a
// disk that goes fail-stop mid-run (its errors trip the breaker, so the
// rest of the run is read one bucket at a time) and a breaker half-open
// at the stretch's start, whose probes are booked one by one before the
// run ends.
func TestServedReadRunMatchesReadBucket(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const a = 1
	var buckets []int
	for b := 0; b < f.Grid().Buckets(); b++ {
		if rep.PrimaryOf(b) == a && f.BucketLen(b) > 0 {
			buckets = append(buckets, b)
		}
	}
	if len(buckets) < 8 {
		t.Fatalf("disk %d is primary of %d occupied buckets, want at least 8", a, len(buckets))
	}
	const probes = 3
	cases := []struct {
		name     string
		inner    func() exec.BucketReader
		halfOpen bool
	}{
		{"clean", func() exec.BucketReader { return exec.NewFileReader(f) }, false},
		{"transient mid-run", func() exec.BucketReader {
			return &faultyRun{inner: exec.NewFileReader(f), disk: a, once: buckets[3]}
		}, false},
		{"fail-stop mid-run", func() exec.BucketReader {
			return &faultyRun{inner: exec.NewFileReader(f), disk: a, once: -1, failFrom: buckets[2]}
		}, false},
		{"half-open", func() exec.BucketReader { return exec.NewFileReader(f) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]runBooking
			for i, stretch := range []bool{true, false} {
				sink := obs.NewSink()
				s, err := New(f, WithFailover(rep), WithHedging(HedgeConfig{After: time.Millisecond}), WithObserver(sink),
					WithBreaker(BreakerConfig{ErrorThreshold: 3, Cooldown: 20 * time.Millisecond, HalfOpenProbes: probes}))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				if tc.halfOpen {
					for s.health.Observe(a, 0, fault.ErrTransient); s.health.closed(a); {
						s.health.Observe(a, 0, fault.ErrTransient)
					}
					for deadline := time.Now().Add(10 * time.Second); !s.health.Allow(a); {
						if time.Now().After(deadline) {
							t.Fatal("breaker never went half-open")
						}
						time.Sleep(time.Millisecond)
					}
				}
				before := s.HealthSnapshot()[a].Reads
				r := s.newServedReader(tc.inner())
				pages := make([][]datagen.Record, len(buckets))
				if stretch {
					if n, err := r.ReadRun(context.Background(), a, buckets, pages); n != len(buckets) || err != nil {
						t.Fatalf("ReadRun read %d of %d buckets: %v", n, len(buckets), err)
					}
				} else {
					for j, b := range buckets {
						if pages[j], err = r.ReadBucket(context.Background(), a, b); err != nil {
							t.Fatalf("bucket %d: %v", b, err)
						}
					}
				}
				if booked := s.HealthSnapshot()[a].Reads - before; tc.halfOpen && booked != probes {
					t.Errorf("stretch %v: %d reads booked before the run ended, want the %d probes", stretch, booked, probes)
				}
				r.EndRun(a)
				st, reg := s.Stats(), sink.Registry()
				got[i] = runBooking{health: s.HealthSnapshot(), hedges: st.HedgesIssued, won: st.HedgesWon,
					legs: reg.Counter("serve.reads.legs").Value(), lat: reg.Histogram("serve.read.leg.latency").Count()}
				for j, p := range pages {
					if !slices.Equal(recordIDs(p), recordIDs(f.Bucket(buckets[j]))) {
						t.Fatalf("stretch %v: bucket %d answered %d records, want its %d", stretch, buckets[j], len(p), f.BucketLen(buckets[j]))
					}
				}
			}
			run, one := got[0], got[1]
			for d := range run.health {
				x, y := run.health[d], one.health[d]
				if x.Reads != y.Reads || x.Errors != y.Errors || x.State != y.State || x.Trips != y.Trips {
					t.Errorf("disk %d: %d reads, %d errors, %v, %d trips in a stretch; %d, %d, %v, %d one at a time",
						d, x.Reads, x.Errors, x.State, x.Trips, y.Reads, y.Errors, y.State, y.Trips)
				}
			}
			if run.hedges != one.hedges || run.won != one.won {
				t.Errorf("failovers issued/won %d/%d in a stretch, %d/%d one at a time", run.hedges, run.won, one.hedges, one.won)
			}
			if run.legs != one.legs || run.lat != run.legs || one.lat != one.legs {
				t.Errorf("legs %d with %d latency samples in a stretch; %d with %d one at a time", run.legs, run.lat, one.legs, one.lat)
			}
			if want := uint64(len(buckets)) + run.hedges; run.legs != want {
				t.Errorf("%d legs for %d reads and %d failovers", run.legs, len(buckets), run.hedges)
			}
		})
	}
}

// A scheduler's search read in stretches answers as the same search read
// one bucket per call, which tracing forces (each attempt keeps its
// span): the same records, BucketsPerDisk and Retries under transient
// faults and a disk that goes fail-stop mid-run, with its reads failed
// over to the replica.
func TestSearchRunPathMatchesPerBucket(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	q := f.Grid().MustRect(grid.Coord{1, 1}, grid.Coord{13, 13})
	var res [2]*exec.Result
	for i, traced := range []bool{false, true} {
		inj, err := fault.New(fault.Config{Seed: 41, TransientProb: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		sink := obs.NewSink()
		if traced {
			sink.EnableTracing(1)
		}
		s, err := New(f, WithFailover(rep), WithHedging(HedgeConfig{After: time.Millisecond}), WithObserver(sink),
			WithBucketReader(&faultyRun{inner: exec.NewFileReader(f), disk: 1, once: -1, failFrom: 120}),
			WithFaults(inj), WithRetry(exec.RetryPolicy{MaxAttempts: 8}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if res[i], err = s.Search(context.Background(), q); err != nil {
			t.Fatalf("traced %v: %v", traced, err)
		}
		if s.Stats().HedgesWon == 0 {
			t.Errorf("traced %v: no read failed over; the fail-stop disk had no effect", traced)
		}
	}
	run, one := res[0], res[1]
	if !slices.Equal(recordIDs(run.Records), recordIDs(one.Records)) {
		t.Errorf("answers differ: %d records in stretches, %d one bucket per call", len(run.Records), len(one.Records))
	}
	if !slices.Equal(run.BucketsPerDisk, one.BucketsPerDisk) || run.Retries != one.Retries {
		t.Errorf("BucketsPerDisk %v, Retries %d in stretches; %v, %d one bucket per call",
			run.BucketsPerDisk, run.Retries, one.BucketsPerDisk, one.Retries)
	}
	if run.Retries == 0 {
		t.Error("no retries: the transient faults had no effect")
	}
}
