package serve

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/replica"
)

// mayWaitReader passes reads through and declares nothing, so the
// scheduler treats its reads as ones that may wait and races them.
type mayWaitReader struct {
	inner exec.BucketReader
}

func (r mayWaitReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	return r.inner.ReadBucket(ctx, disk, bucket)
}

// failingReader is a never-waiting reader whose reads of a disk listed
// in fail return that disk's error, and whose other reads under a done
// context return the context's.
type failingReader struct {
	inner exec.BucketReader
	fail  map[int]error
}

func (r failingReader) ReadBucket(ctx context.Context, disk, bucket int) ([]datagen.Record, error) {
	if err := r.fail[disk]; err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.inner.ReadBucket(ctx, disk, bucket)
}

func (r failingReader) NeverWaits() bool { return exec.NeverWaits(r.inner) }

// recordIDs lists the records' IDs in order.
func recordIDs(recs []datagen.Record) []int {
	ids := make([]int, len(recs))
	for i, rec := range recs {
		ids[i] = rec.ID
	}
	return ids
}

// The simulated service time waits, and so may any reader that does not
// declare otherwise; a servedReader races exactly the reads of a stack
// that may wait.
func TestReadsNeverWait(t *testing.T) {
	f := newLoadedFile(t, 4, 500)
	s, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	file := exec.NewFileReader(f)
	slow, err := NewLatencyReader(file, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    exec.BucketReader
		want bool
	}{
		{"file reader", file, true},
		{"latency reader", slow, false},
		{"pass-through wrapper", mayWaitReader{file}, false},
	} {
		if got := exec.NeverWaits(tc.r); got != tc.want {
			t.Errorf("%s: NeverWaits = %v, want %v", tc.name, got, tc.want)
		}
		if got := s.newServedReader(tc.r).waitless; got != tc.want {
			t.Errorf("%s: servedReader waitless = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// A never-waiting read arms no race: a healthy run draws no bucketRace
// and issues no hedge. It keeps the failover: a primary that fails
// outright — fail-stop or transient — is answered by the bucket's other
// replica at once, as a hedge leg; a double failure reports the
// transient error, whichever leg hit it; a cancelled read reports the
// context's error and issues nothing.
func TestWaitlessReadFailsOverAtOnce(t *testing.T) {
	f := newLoadedFile(t, 4, 3000)
	rep, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	newSched := func(t *testing.T) *Scheduler {
		t.Helper()
		s, err := New(f, WithFailover(rep), WithHedging(HedgeConfig{After: time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	const a = 1
	var buckets []int
	for b := 0; b < f.Grid().Buckets(); b++ {
		if rep.PrimaryOf(b) == a && f.BucketLen(b) > 0 {
			buckets = append(buckets, b)
		}
	}
	if len(buckets) < 2 {
		t.Fatalf("disk %d is primary of %d occupied buckets, want at least 2", a, len(buckets))
	}
	bucket := buckets[0]
	b := rep.BackupOf(bucket)

	t.Run("healthy", func(t *testing.T) {
		s := newSched(t)
		r := s.newServedReader(exec.NewFileReader(f))
		if !r.waitless {
			t.Fatal("a servedReader over the file reader races its reads")
		}
		for _, bk := range buckets {
			recs, err := r.ReadBucket(context.Background(), a, bk)
			if err != nil || len(recs) != f.BucketLen(bk) {
				t.Fatalf("bucket %d: %d records, %v; want %d", bk, len(recs), err, f.BucketLen(bk))
			}
		}
		if r.slots[a].race != nil {
			t.Error("a healthy never-waiting run drew a bucketRace")
		}
		r.EndRun(a)
		if st := s.Stats(); st.HedgesIssued != 0 || st.HedgesWon != 0 {
			t.Errorf("hedges issued/won %d/%d, want none", st.HedgesIssued, st.HedgesWon)
		}
		if reads, _ := bookedReads(s); reads != uint64(len(buckets)) {
			t.Errorf("%d reads booked, want %d", reads, len(buckets))
		}
	})

	for _, primary := range []error{fault.ErrDiskFailed, fault.ErrTransient} {
		t.Run("failover from "+primary.Error(), func(t *testing.T) {
			s := newSched(t)
			r := s.newServedReader(failingReader{inner: exec.NewFileReader(f), fail: map[int]error{a: primary}})
			recs, err := r.ReadBucket(context.Background(), a, bucket)
			if err != nil {
				t.Fatalf("read with a failing primary and a healthy replica: %v", err)
			}
			if !slices.Equal(recordIDs(recs), recordIDs(f.Bucket(bucket))) {
				t.Errorf("failover returned %d records, want the bucket's %d", len(recs), f.BucketLen(bucket))
			}
			if st := s.Stats(); st.HedgesIssued != 1 || st.HedgesWon != 1 {
				t.Errorf("hedges issued/won %d/%d, want exactly the one failover leg, won", st.HedgesIssued, st.HedgesWon)
			}
			if sl := &r.slots[a]; sl.race != nil || sl.chain != 0 {
				t.Errorf("after the failover: race %v, chain %d; want no race and a fresh chain", sl.race, sl.chain)
			}
			r.EndRun(a)
			if h := s.HealthSnapshot(); h[a].Errors != 1 || h[b].Reads != 1 || h[b].Errors != 0 {
				t.Errorf("health: disk %d %d errors, disk %d %d reads / %d errors; want the primary's error and the replica's clean read",
					a, h[a].Errors, b, h[b].Reads, h[b].Errors)
			}
		})
	}

	for _, fail := range []map[int]error{
		{a: fault.ErrDiskFailed, b: fault.ErrTransient},
		{a: fault.ErrTransient, b: fault.ErrDiskFailed},
	} {
		t.Run("double failure", func(t *testing.T) {
			s := newSched(t)
			r := s.newServedReader(failingReader{inner: exec.NewFileReader(f), fail: fail})
			if _, err := r.ReadBucket(context.Background(), a, bucket); !errors.Is(err, fault.ErrTransient) {
				t.Errorf("primary %v, replica %v: read reported %v, want the transient error", fail[a], fail[b], err)
			}
			if st := s.Stats(); st.HedgesIssued != 1 || st.HedgesWon != 0 {
				t.Errorf("hedges issued/won %d/%d, want 1/0", st.HedgesIssued, st.HedgesWon)
			}
		})
	}

	// The primary fails after the query was cancelled: the replica is not
	// read.
	t.Run("cancelled", func(t *testing.T) {
		s := newSched(t)
		r := s.newServedReader(failingReader{inner: exec.NewFileReader(f), fail: map[int]error{a: fault.ErrTransient}})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := r.ReadBucket(ctx, a, bucket); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled read reported %v, want %v", err, context.Canceled)
		}
		if st := s.Stats(); st.HedgesIssued != 0 {
			t.Errorf("%d hedges issued for a cancelled read, want none", st.HedgesIssued)
		}
	})
}
