package decluster_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	decluster "decluster"
)

// The batch layer, end to end through the facade: an engine over a
// scheduler answers overlapping concurrent queries bit-identically to
// the unbatched path, dedup shows up in the stats, and the aggregate
// kernel answers without touching a bucket.
func TestFacadeBatch(t *testing.T) {
	f, _, r := faultFixture(t)
	ctx := context.Background()

	s, err := decluster.Serve(f,
		decluster.WithAdmission(decluster.AdmissionConfig{MaxInFlight: 4, MaxQueue: 64}),
		decluster.WithDrainTimeout(10*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	eng, err := decluster.NewBatchEngine(f, s,
		decluster.WithBatchWindow(3*time.Millisecond),
		decluster.WithBatchMax(8),
	)
	if err != nil {
		t.Fatal(err)
	}

	want, err := s.Do(ctx, decluster.ServeQuery{Rect: r})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	answers := make([]*decluster.BatchAnswer, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			answers[c], errs[c] = eng.Do(ctx, decluster.BatchQuery{Rect: r, Priority: c % 2})
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if !reflect.DeepEqual(answers[c].Records, want.Records) {
			t.Fatalf("client %d: batched answer differs from unbatched (%d vs %d records)",
				c, len(answers[c].Records), len(want.Records))
		}
	}

	agg, err := eng.Aggregate(ctx, decluster.AggregateQuery{Rect: r, Op: decluster.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != int64(len(want.Records)) {
		t.Fatalf("aggregate count = %d, want %d", agg.Count, len(want.Records))
	}

	st, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Issued != clients || st.Answered != clients {
		t.Fatalf("stats = %+v, want %d issued and answered", st, clients)
	}
	if st.Deduped == 0 {
		t.Error("identical concurrent queries produced no dedup savings")
	}
	if st.Demand != st.Physical+st.Deduped+st.Pruned {
		t.Fatalf("Demand %d != Physical %d + Deduped %d + Pruned %d",
			st.Demand, st.Physical, st.Deduped, st.Pruned)
	}
	if _, err := eng.Search(ctx, r); !errors.Is(err, decluster.ErrBatchClosed) {
		t.Fatalf("post-close error = %v, want ErrBatchClosed", err)
	}
}
