package batch_test

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/batch"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
)

// gatedReader serves bucket reads straight from the grid file, but
// blocks each read on a token — making "cancel one member mid-batch" a
// deterministic schedule instead of a race.
type gatedReader struct {
	f    *gridfile.File
	gate chan struct{} // one token per read

	mu    sync.Mutex
	waves [][]int
}

func (r *gatedReader) read(ctx context.Context, buckets []int, prio int) (*exec.Result, error) {
	select {
	case <-r.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	r.mu.Lock()
	r.waves = append(r.waves, append([]int(nil), buckets...))
	r.mu.Unlock()
	res := &exec.Result{}
	g := r.f.Grid()
	c := make(grid.Coord, g.K())
	for _, b := range buckets {
		g.Delinearize(b, c)
		rs, err := r.f.CellRangeSearch(grid.Rect{Lo: c, Hi: c})
		if err != nil {
			return nil, err
		}
		res.Records = append(res.Records, rs.Records...)
		res.RecordsPerBucket = append(res.RecordsPerBucket, len(rs.Records))
	}
	return res, nil
}

// dispatched counts the reads and buckets the reader actually served,
// and how many times bucket `of` was among them.
func (r *gatedReader) dispatched(of int) (waves, buckets, timesRead int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.waves {
		buckets += len(w)
		for _, b := range w {
			if b == of {
				timesRead++
			}
		}
	}
	return len(r.waves), buckets, timesRead
}

func newGatedFile(t *testing.T) (*gridfile.File, *gatedReader) {
	t.Helper()
	g := grid.MustNew(8, 8)
	m, err := alloc.NewHCAM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := gridfile.New(gridfile.Config{Method: m, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(datagen.Uniform{K: 2, Seed: 3}.Generate(600)); err != nil {
		t.Fatal(err)
	}
	return f, &gatedReader{f: f, gate: make(chan struct{}, 64)}
}

// TestBatchCancellationSharedRead abandons one member before the read
// holding its shared bucket can run, and requires the read to complete
// untouched for the members that still need it: their answers stay
// bit-identical to a solo run, the shared bucket is read exactly once,
// and no goroutine leaks.
func TestBatchCancellationSharedRead(t *testing.T) {
	before := runtime.NumGoroutine()

	f, rd := newGatedFile(t)
	g := f.Grid()
	eng, err := batch.New(f, rd.read,
		batch.WithWindow(time.Hour), // dispatch by batch-full only
		batch.WithMaxBatch(3))
	if err != nil {
		t.Fatal(err)
	}

	// Three members sharing cell (0,0): the gate holds the group's read
	// until released, so the whole plan is still undispatched when
	// member 1 abandons.
	qs := []grid.Rect{
		g.MustRect(grid.Coord{0, 0}, grid.Coord{0, 1}),
		g.MustRect(grid.Coord{0, 0}, grid.Coord{1, 0}),
		g.MustRect(grid.Coord{0, 0}, grid.Coord{2, 2}),
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()

	answers := make([]*batch.Answer, len(qs))
	errs := make([]error, len(qs))
	var survivors sync.WaitGroup
	for _, i := range []int{0, 2} {
		survivors.Add(1)
		go func(i int) {
			defer survivors.Done()
			answers[i], errs[i] = eng.Search(context.Background(), qs[i])
		}(i)
	}
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		answers[1], errs[1] = eng.Search(ctx1, qs[1])
	}()

	// Abandon member 1 and wait for its Search to return — it does not
	// need the gate, so after this the group (launched by the third
	// enqueue) is provably mid-batch with member 1 gone.
	cancel1()
	<-done1
	if errs[1] != context.Canceled {
		t.Fatalf("abandoned member error = %v, want context.Canceled", errs[1])
	}

	// Release more tokens than the group has reads and let it run.
	for i := 0; i < 16; i++ {
		rd.gate <- struct{}{}
	}
	survivors.Wait()

	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("surviving member %d failed: %v", i, errs[i])
		}
		want, err := f.CellRangeSearch(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answers[i].Records, want.Records) {
			t.Fatalf("surviving member %d: %d records, want %d — shared read corrupted by cancellation",
				i, len(answers[i].Records), len(want.Records))
		}
	}

	st, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Issued != 3 || st.Answered != 2 || st.Failed != 1 || st.Abandoned != 1 {
		t.Fatalf("stats = %+v, want issued 3, answered 2, failed 1, abandoned 1", st)
	}
	if st.Demand != st.Physical+st.Deduped+st.Pruned {
		t.Fatalf("Demand %d != Physical %d + Deduped %d + Pruned %d",
			st.Demand, st.Physical, st.Deduped, st.Pruned)
	}

	// The shared bucket was read exactly once — not cancelled with
	// member 1, not re-read for the survivors.
	if _, _, n := rd.dispatched(g.Linearize(grid.Coord{0, 0})); n != 1 {
		t.Fatalf("shared bucket read %d times, want exactly once", n)
	}

	// No goroutine leak: everything the engine spawned has exited.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines: %d before, %d after close", before, now)
	}
}

// TestBatchCancellationPrunesSoleReads abandons the only owner of two
// buckets before its read dispatches and requires the engine to prune
// those reads rather than issue them for nobody.
func TestBatchCancellationPrunesSoleReads(t *testing.T) {
	f, rd := newGatedFile(t)
	g := f.Grid()
	eng, err := batch.New(f, rd.read,
		batch.WithWindow(40*time.Millisecond), // launch by window expiry
		batch.WithMaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}

	q0 := g.MustRect(grid.Coord{0, 0}, grid.Coord{0, 0}) // one shared-nothing bucket
	q1 := g.MustRect(grid.Coord{5, 5}, grid.Coord{5, 6}) // two buckets, solely owned

	var ans0 *batch.Answer
	var err0, err1 error
	done0, done1 := make(chan struct{}), make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	go func() {
		defer close(done0)
		ans0, err0 = eng.Search(context.Background(), q0)
	}()
	go func() {
		defer close(done1)
		_, err1 = eng.Search(ctx1, q1)
	}()

	// Both members join the window; abandoning member 1 completes well
	// inside it, so by launch time its two buckets have no live owner.
	cancel1()
	<-done1
	if err1 != context.Canceled {
		t.Fatalf("abandoned member error = %v, want context.Canceled", err1)
	}
	for i := 0; i < 8; i++ {
		rd.gate <- struct{}{}
	}
	<-done0
	if err0 != nil {
		t.Fatalf("surviving member failed: %v", err0)
	}
	want, err := f.CellRangeSearch(q0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans0.Records, want.Records) {
		t.Fatalf("surviving member got %d records, want %d", len(ans0.Records), len(want.Records))
	}

	st, err := eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Physical != 1 || st.Pruned != 2 {
		t.Fatalf("Physical = %d, Pruned = %d; want 1 dispatched, 2 pruned", st.Physical, st.Pruned)
	}
	if st.Demand != st.Physical+st.Deduped+st.Pruned {
		t.Fatalf("Demand %d != Physical %d + Deduped %d + Pruned %d",
			st.Demand, st.Physical, st.Deduped, st.Pruned)
	}
	if waves, buckets, _ := rd.dispatched(0); waves != 1 || buckets != 1 {
		t.Fatalf("reader served %d waves / %d buckets, want exactly 1/1", waves, buckets)
	}
}

// TestBatchReadCountsMismatch serves reads whose per-bucket counts
// disagree with the buckets asked for or the records returned, and
// requires every pending member to fail with an error and no records:
// a record is never put in the wrong bucket.
func TestBatchReadCountsMismatch(t *testing.T) {
	f, rd := newGatedFile(t)
	g := f.Grid()
	for _, tc := range []struct {
		name string
		skew func(*exec.Result)
	}{
		{"short", func(r *exec.Result) { r.RecordsPerBucket = r.RecordsPerBucket[1:] }},
		{"long", func(r *exec.Result) { r.RecordsPerBucket = append(r.RecordsPerBucket, 0) }},
		{"overrun", func(r *exec.Result) { r.RecordsPerBucket[0] += len(r.Records) + 1 }},
		{"underrun", func(r *exec.Result) { r.RecordsPerBucket[len(r.RecordsPerBucket)-1]-- }},
		// The right total, split with a negative count.
		{"negative", func(r *exec.Result) {
			c := r.RecordsPerBucket
			c[0], c[1] = -1, c[0]+c[1]+1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			read := func(ctx context.Context, buckets []int, prio int) (*exec.Result, error) {
				rd.gate <- struct{}{}
				res, err := rd.read(ctx, buckets, prio)
				if err == nil {
					tc.skew(res)
				}
				return res, err
			}
			eng, err := batch.New(f, read, batch.WithWindow(time.Hour), batch.WithMaxBatch(3))
			if err != nil {
				t.Fatal(err)
			}
			qs := []grid.Rect{
				g.MustRect(grid.Coord{0, 0}, grid.Coord{1, 1}),
				g.MustRect(grid.Coord{1, 1}, grid.Coord{2, 3}),
				g.MustRect(grid.Coord{4, 4}, grid.Coord{4, 5}),
			}
			answers := make([]*batch.Answer, len(qs))
			errs := make([]error, len(qs))
			var wg sync.WaitGroup
			for i := range qs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					answers[i], errs[i] = eng.Search(context.Background(), qs[i])
				}(i)
			}
			wg.Wait()
			for i := range qs {
				if errs[i] == nil || answers[i] != nil {
					t.Fatalf("member %d: answered %t, error %v; want no answer and an error", i, answers[i] != nil, errs[i])
				}
			}
			st, err := eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Issued != 3 || st.Answered != 0 || st.Failed != 3 || st.Abandoned != 0 {
				t.Fatalf("stats = %+v, want issued 3, answered 0, failed 3", st)
			}
			if st.Demand != st.Physical+st.Deduped+st.Pruned {
				t.Fatalf("Demand %d != Physical %d + Deduped %d + Pruned %d",
					st.Demand, st.Physical, st.Deduped, st.Pruned)
			}
		})
	}
}
