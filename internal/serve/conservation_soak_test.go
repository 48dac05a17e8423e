// The conservation differential soak lives in an external test package
// so it can wire the full stack — faults, hedging, and inline
// read-repair (package repair imports serve, so an in-package test
// would cycle).
package serve_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/batch"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/obs"
	"decluster/internal/repair"
	"decluster/internal/replica"
	"decluster/internal/serve"
)

// TestConservationSoak drives the full serving stack — admission
// control, retries, failover, hedging, circuit breakers, and inline
// read-repair over a corrupted checksummed store — through a chaos soak
// with a disk flapping and the transient-error rate swinging, then
// asserts the observability layer's conservation identities exactly:
//
//	issued    = admitted + rejected + evicted + expired + abandoned + closed
//	admitted  = completed + unavailable + failed
//	legs      = exec attempts + hedges issued       (every leg observed once)
//	attempts  = ok + err + retried                  (every attempt classified)
//	calls     = ok + err + cancelled                (every call classified)
//
// and that every registry mirror equals its Stats() twin. Anything the
// metrics double-count, drop, or race shows up here as an inequality —
// the test is the proof behind the "<5% overhead, zero drift"
// observability claim, so it must hold under -race -count=2.
//
// A second client population routes through a batch.Engine layered on
// the same scheduler (its physical reads are DoBuckets calls and count
// toward serve.queries.issued), so the batch identities are asserted
// under the same chaos:
//
//	batch issued   = answered + failed                 (abandoned ⊆ failed)
//	batch demand   = physical + deduped + pruned       (physical ≤ demand)
func TestConservationSoak(t *testing.T) {
	const (
		disks    = 4
		clients  = 8
		perCli   = 40
		bClients = 4
		bPerCli  = 30
	)
	g := grid.MustNew(16, 16)
	m, err := alloc.NewHCAM(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	f, err := gridfile.New(gridfile.Config{Method: m, PageCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertAll(datagen.Uniform{K: 2, Seed: 5}.Generate(3000)); err != nil {
		t.Fatal(err)
	}
	rep, err := replica.NewChained(m)
	if err != nil {
		t.Fatal(err)
	}
	store, err := gridfile.NewStore(f, func(b int) []int {
		return []int{rep.PrimaryOf(b), rep.BackupOf(b)}
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{
		Seed:          23,
		TransientProb: 0.15,
		CorruptProb:   0.03,
		Stragglers:    map[int]float64{3: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := repair.SeedCorruption(store, inj); n == 0 {
		t.Fatal("corruption plan rotted no pages; read-repair untested")
	}

	sink := obs.NewSink()
	sink.EnableTracing(4)
	var tracker repair.Tracker
	tracker.AttachObserver(sink)
	inj.AttachObserver(sink)
	rr := repair.NewReadRepairer(store, &tracker, inj)
	rr.Observe(sink)

	s, err := serve.New(f,
		serve.WithBucketReader(exec.NewStoreReader(store)),
		serve.WithFaults(inj),
		serve.WithFailover(rep),
		serve.WithRetry(exec.RetryPolicy{MaxAttempts: 6, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond}),
		serve.WithBaseLatency(100*time.Microsecond),
		serve.WithHedging(serve.HedgeConfig{After: 250 * time.Microsecond}),
		serve.WithBreaker(serve.BreakerConfig{ErrorThreshold: 6, Cooldown: 10 * time.Millisecond}),
		serve.WithReadWrapper(rr.Wrap),
		serve.WithAdmission(serve.AdmissionConfig{MaxInFlight: 3, MaxQueue: 4}),
		serve.WithDrainTimeout(10*time.Second),
		serve.WithObserver(sink),
	)
	if err != nil {
		t.Fatal(err)
	}

	// The batch engine rides the same scheduler: every physical read is
	// one DoBuckets admission, tallied so the serve.queries.issued
	// conservation check can account for batch traffic exactly.
	var physCalls atomic.Uint64
	eng, err := batch.New(f,
		func(ctx context.Context, buckets []int, prio int) (*exec.Result, error) {
			physCalls.Add(1)
			return s.DoBuckets(ctx, serve.BucketQuery{Buckets: buckets, Priority: prio})
		},
		batch.WithObserver(sink),
		batch.WithWindow(3*time.Millisecond),
		batch.WithMaxBatch(8),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos driver: flap disk 1 and swing the transient-error rate while
	// the clients run; always leave the disk recovered at stop so the
	// fault failure/recovery counters must balance.
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		failed := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				if failed {
					inj.FlipDisks(nil, []int{1})
				}
				return
			case <-time.After(5 * time.Millisecond):
			}
			if failed {
				inj.FlipDisks(nil, []int{1})
			} else {
				inj.FlipDisks([]int{1}, nil)
			}
			failed = !failed
			inj.SetTransientProb([]float64{0.05, 0.15, 0.3}[i%3])
		}
	}()

	// Clients issue a mix of priorities and deadlines: tight deadlines
	// exercise the abandoned/expired shed classes, the small admission
	// bounds exercise rejection and eviction, and the error outcomes are
	// all acceptable — the assertions are about accounting, not success.
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for k := 0; k < perCli; k++ {
				w, h := 1+rng.Intn(6), 1+rng.Intn(6)
				x, y := rng.Intn(g.Dim(0)-w+1), rng.Intn(g.Dim(1)-h+1)
				q := g.MustRect(grid.Coord{x, y}, grid.Coord{x + w - 1, y + h - 1})
				deadline := 50 * time.Millisecond
				if k%5 == 0 {
					deadline = time.Millisecond
				}
				qctx, cancel := context.WithTimeout(context.Background(), deadline)
				_, _ = s.Do(qctx, serve.Query{Rect: q, Priority: c % 3})
				cancel()
			}
		}(c)
	}
	// Batch clients draw from a small rect pool so the window actually
	// groups overlapping demand; every sixth query gets a deadline too
	// tight to survive, exercising mid-batch abandonment.
	for c := 0; c < bClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(5000 + c)))
			pool := make([]grid.Rect, 6)
			for i := range pool {
				prng := rand.New(rand.NewSource(int64(77 + i)))
				w, h := 1+prng.Intn(5), 1+prng.Intn(5)
				x, y := prng.Intn(g.Dim(0)-w+1), prng.Intn(g.Dim(1)-h+1)
				pool[i] = g.MustRect(grid.Coord{x, y}, grid.Coord{x + w - 1, y + h - 1})
			}
			for k := 0; k < bPerCli; k++ {
				deadline := 200 * time.Millisecond
				if k%6 == 0 {
					deadline = time.Millisecond
				}
				qctx, cancel := context.WithTimeout(context.Background(), deadline)
				_, _ = eng.Do(qctx, batch.Query{Rect: pool[rng.Intn(len(pool))], Priority: c % 3})
				cancel()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()
	bst, err := eng.Close()
	if err != nil {
		t.Fatalf("batch engine close: %v", err)
	}
	snap, err := s.Close()
	if err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	st := snap.Stats

	reg := sink.Registry()
	cv := func(name string) uint64 { return reg.Counter(name).Value() }
	eq := func(what string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d != %d", what, got, want)
		}
	}

	// Every registry mirror must equal its Stats() twin: the two are
	// incremented at the same sites, so drift means a missed or doubled
	// count.
	eq("serve.queries.admitted vs Stats.Admitted", cv("serve.queries.admitted"), st.Admitted)
	eq("serve.queries.completed vs Stats.Completed", cv("serve.queries.completed"), st.Completed)
	eq("serve.queries.unavailable vs Stats.Unavailable", cv("serve.queries.unavailable"), st.Unavailable)
	eq("serve.queries.failed vs Stats.Failed", cv("serve.queries.failed"), st.Failed)
	eq("serve.queries.rejected vs Stats.Rejected", cv("serve.queries.rejected"), st.Rejected)
	eq("serve.queries.evicted vs Stats.Evicted", cv("serve.queries.evicted"), st.Evicted)
	eq("serve.queries.expired vs Stats.Expired", cv("serve.queries.expired"), st.Expired)
	eq("serve.queries.abandoned vs Stats.Abandoned", cv("serve.queries.abandoned"), st.Abandoned)
	eq("serve.hedges.issued vs Stats.HedgesIssued", cv("serve.hedges.issued"), st.HedgesIssued)
	eq("serve.hedges.won vs Stats.HedgesWon", cv("serve.hedges.won"), st.HedgesWon)
	eq("serve.breaker.opened vs Stats.BreakerTrips", cv("serve.breaker.opened"), st.BreakerTrips)
	eq("repair.readrepair.repaired vs Repairs()", cv("repair.readrepair.repaired"), uint64(rr.Repairs()))
	eq("repair.readrepair.failed vs Failures()", cv("repair.readrepair.failed"), uint64(rr.Failures()))

	// Query conservation: every issued query lands in exactly one
	// terminal class, and every admitted query in exactly one outcome.
	// Every serve query is either a direct client call or one batch
	// physical read (a DoBuckets admission), so issued must equal the
	// two populations exactly.
	issued := cv("serve.queries.issued")
	if want := uint64(clients*perCli) + physCalls.Load(); issued != want {
		t.Errorf("issued = %d, want %d (direct %d + batch reads %d)",
			issued, want, clients*perCli, physCalls.Load())
	}
	eq("issued = admitted+rejected+evicted+expired+abandoned+closed",
		issued, st.Admitted+st.Rejected+st.Evicted+st.Expired+st.Abandoned+cv("serve.queries.closed"))
	eq("admitted = completed+unavailable+failed",
		st.Admitted, st.Completed+st.Unavailable+st.Failed)

	// Read-leg conservation: every executor attempt is one primary leg,
	// every hedge one more, and each leg's latency is observed exactly
	// once (the hedge drain guarantees losers land before close).
	attempts := cv("exec.read.attempts")
	eq("legs = attempts + hedges", cv("serve.reads.legs"), attempts+st.HedgesIssued)
	eq("leg latency count = legs", reg.Histogram("serve.read.leg.latency").Count(), cv("serve.reads.legs"))
	eq("query latency count = completed", reg.Histogram("serve.query.latency").Count(), st.Completed)

	// Executor conservation: attempts and calls each partition into
	// exactly one terminal class; the per-disk family re-adds to the
	// scalar totals.
	eq("attempts = ok+err+retried",
		attempts, cv("exec.read.attempts.ok")+cv("exec.read.attempts.err")+cv("exec.read.attempts.retried"))
	eq("calls = ok+err+cancelled",
		cv("exec.read.calls"), cv("exec.read.calls.ok")+cv("exec.read.calls.err")+cv("exec.read.calls.cancelled"))
	eq("disk attempts family sum = attempts",
		reg.CounterFamily("exec.disk.read.attempts", "disk", 1).Sum(), attempts)
	eq("disk latency family count = attempts",
		reg.HistogramFamily("exec.disk.read.latency", "disk", 1).Count(), attempts)
	eq("exec queries = ok+err",
		cv("exec.queries"), cv("exec.queries.ok")+cv("exec.queries.err"))
	eq("exec queries = serve admitted", cv("exec.queries"), st.Admitted)
	eq("exec queries ok = serve completed", cv("exec.queries.ok"), st.Completed)
	eq("exec queries err = serve unavailable+failed",
		cv("exec.queries.err"), st.Unavailable+st.Failed)

	// Batch conservation: every logical batch query lands in exactly one
	// terminal class, and the read plan partitions exactly — physical
	// dispatches never exceed logical demand, and the dedup savings is
	// the difference to the read (plus whatever pruning saved on top).
	eq("batch issued = answered+failed", bst.Issued, bst.Answered+bst.Failed)
	if bst.Issued != uint64(bClients*bPerCli) {
		t.Errorf("batch issued = %d, want %d", bst.Issued, bClients*bPerCli)
	}
	if bst.Abandoned > bst.Failed {
		t.Errorf("batch abandoned %d exceeds failed %d", bst.Abandoned, bst.Failed)
	}
	eq("batch demand = physical+deduped+pruned", bst.Demand, bst.Physical+bst.Deduped+bst.Pruned)
	if bst.Physical > bst.Demand {
		t.Errorf("batch physical reads %d exceed logical demand %d", bst.Physical, bst.Demand)
	}

	// Batch registry mirrors must equal their Stats() twins, same as
	// serve's.
	eq("batch.queries.issued vs Issued", cv("batch.queries.issued"), bst.Issued)
	eq("batch.queries.answered vs Answered", cv("batch.queries.answered"), bst.Answered)
	eq("batch.queries.failed vs Failed", cv("batch.queries.failed"), bst.Failed)
	eq("batch.queries.abandoned vs Abandoned", cv("batch.queries.abandoned"), bst.Abandoned)
	eq("batch.groups vs Groups", cv("batch.groups"), bst.Groups)
	eq("batch.demand.buckets vs Demand", cv("batch.demand.buckets"), bst.Demand)
	eq("batch.reads.physical vs Physical", cv("batch.reads.physical"), bst.Physical)
	eq("batch.reads.deduped vs Deduped", cv("batch.reads.deduped"), bst.Deduped)
	eq("batch.reads.pruned vs Pruned", cv("batch.reads.pruned"), bst.Pruned)
	eq("batch query latency count = answered",
		reg.Histogram("batch.query.latency").Count(), bst.Answered)
	eq("batch group latency count = groups",
		reg.Histogram("batch.group.latency").Count(), bst.Groups)

	// The chaos driver recovered everything it failed.
	eq("fault failures = recoveries", cv("fault.disk.failures"), cv("fault.disk.recoveries"))

	// The scheduler drained: nothing queued, nothing in flight.
	if d := reg.Gauge("serve.queue.depth").Value(); d != 0 {
		t.Errorf("final queue depth = %d", d)
	}
	if d := reg.Gauge("serve.inflight").Value(); d != 0 {
		t.Errorf("final in-flight = %d", d)
	}

	// The soak must have actually exercised the interesting machinery —
	// a quiet run would vacuously conserve everything.
	if st.Completed == 0 {
		t.Error("no query completed")
	}
	if st.HedgesIssued == 0 {
		t.Error("no hedges issued; straggler had no effect")
	}
	if cv("exec.read.attempts.retried") == 0 {
		t.Error("no retries; transient faults had no effect")
	}
	if st.Shed() == 0 {
		t.Error("nothing shed; admission bounds had no effect")
	}
	if bst.Answered == 0 {
		t.Error("no batch query answered")
	}
	if bst.Groups == 0 {
		t.Error("no batch group executed")
	}
	if bst.Deduped == 0 {
		t.Error("no dedup savings; batch windows never grouped overlapping demand")
	}
	if bst.Abandoned == 0 {
		t.Error("no batch query abandoned; tight deadlines had no effect")
	}
	traces := sink.SlowestTraces()
	if len(traces) == 0 || len(traces) > 4 {
		t.Errorf("retained %d traces, want 1..4", len(traces))
	}
	for _, tr := range traces {
		if tr.Total() <= 0 {
			t.Errorf("trace %d has non-positive total %v", tr.ID(), tr.Total())
		}
	}
}
