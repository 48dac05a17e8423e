package hedge

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The tests of a Racer that is used again: what TestRace pins for one
// race must hold for the thousandth, and nothing of one race — its
// watchdog, its leg context, its backup's result — may reach the next.
// Like TestRace they wait on gates, never on the clock; the one delay
// that is waited out is the hedge delay itself.

// legs routes a race's two targets to their scripts.
func legs(p, b *script) func(context.Context, int, bool) (int, error) {
	return func(ctx context.Context, target int, hedge bool) (int, error) {
		if target == backup {
			return b.run(ctx, target, hedge)
		}
		return p.run(ctx, target, hedge)
	}
}

// instant is a leg that answers at once; calls counts the backup's.
func instant(backupCalls *int) func(context.Context, int, bool) (int, error) {
	return func(_ context.Context, target int, _ bool) (int, error) {
		if target == backup {
			*backupCalls++
		}
		return target, nil
	}
}

// settle waits for the goroutine count to come back to baseline: a
// timer goroutine that ran a backup leg, or a stale watchdog, may be on
// its last instruction.
func settle(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 1_000_000 {
			t.Fatalf("%d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// A watchdog armed by an early race must not hedge a late one early: the
// delay runs from each race's own start.
func TestRacerHedgesFromTheRaceStart(t *testing.T) {
	const after = 30 * time.Millisecond
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r Racer[int]
	defer r.Release()

	// Instant races until the watchdog the first one armed is half way
	// to firing — and a thousand at least.
	backupCalls := 0
	leg := instant(&backupCalls)
	armed := time.Now()
	for i := 0; i < 1000 || time.Since(armed) < after/2; i++ {
		if _, winner, hedged, err := r.Race(ctx, Now(), after, primary, backup, leg, nil); winner != primary || hedged || err != nil {
			t.Fatalf("instant race %d: winner %d hedged %v err %v", i, winner, hedged, err)
		}
	}
	if backupCalls != 0 {
		t.Fatalf("%d backup legs ran beside instant primaries", backupCalls)
	}

	// The gated race: its primary never answers, so the backup must.
	p, b := newScript(make(chan struct{}), nil), newScript(nil, nil)
	var launched time.Time
	start := time.Now()
	val, winner, hedged, err := r.Race(ctx, Now(), after, primary, backup, func(ctx context.Context, target int, hedge bool) (int, error) {
		if target == backup {
			launched = time.Now()
		}
		return legs(p, b)(ctx, target, hedge)
	}, preferFirst)
	if err != nil || winner != backup || val != backup || !hedged {
		t.Fatalf("gated race: value %d winner %d hedged %v err %v, want the backup's", val, winner, hedged, err)
	}
	if waited := launched.Sub(start); waited < after {
		t.Fatalf("backup launched %v into its race, before the %v delay", waited, after)
	}
	settle(t, baseline)
}

// The delay runs from the caller's stamp, not from the call: a read
// whose stamp is already a delay old launches its backup at once, and
// the backup's win cancels the primary, which would never answer.
func TestRacerOverdueStampHedgesAtOnce(t *testing.T) {
	const after = 30 * time.Millisecond
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r Racer[int]
	defer r.Release()

	// The read "began" a delay ago: the one delay this test waits out.
	stamp := Now()
	for Now()-stamp <= int64(after) {
		runtime.Gosched()
	}
	p, b := newScript(make(chan struct{}), nil), newScript(nil, nil)
	var launched int64
	called := Now()
	val, winner, hedged, err := r.Race(ctx, stamp, after, primary, backup, func(ctx context.Context, target int, hedge bool) (int, error) {
		if target == backup {
			launched = Now()
		}
		return legs(p, b)(ctx, target, hedge)
	}, preferFirst)
	if err != nil || winner != backup || val != backup || !hedged {
		t.Fatalf("overdue race: value %d winner %d hedged %v err %v, want the backup's", val, winner, hedged, err)
	}
	if !errors.Is(p.ctxErr, context.Canceled) {
		t.Fatalf("the losing primary returned on %v, want a cancelled context", p.ctxErr)
	}
	if waited := time.Duration(launched - called); waited >= after {
		t.Fatalf("backup launched %v after the call although its stamp was already %v old: the delay ran from the call", waited, after)
	}
	settle(t, baseline)
}

// A fire of the watchdog carries no race of its own. One that lands on
// an idle Racer does nothing; one that lands on a race younger than its
// delay — the Racer went back to its pool and out again in between —
// leaves that race alone and leaves no result behind.
func TestRacerStaleWatchdogFire(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r Racer[int]
	defer r.Release()

	// A first race, so that the Racer has a watchdog and a past.
	backupCalls := 0
	if _, _, hedged, err := r.Race(ctx, Now(), never, primary, backup, instant(&backupCalls), nil); hedged || err != nil {
		t.Fatalf("first race: hedged %v err %v", hedged, err)
	}
	r.watch() // idle
	if backupCalls != 0 || r.state.Load() != idle {
		t.Fatalf("a fire on an idle Racer: %d backup legs, state %#x", backupCalls, r.state.Load())
	}

	// The "different race": the fire lands while its primary is gated.
	gate := make(chan struct{})
	p, b := newScript(gate, nil), newScript(nil, nil)
	go func() {
		<-p.started
		r.watch()
		close(gate)
	}()
	val, winner, hedged, err := r.Race(ctx, Now(), never, primary, backup, legs(p, b), nil)
	if err != nil || winner != primary || val != primary || hedged {
		t.Fatalf("value %d winner %d hedged %v err %v, want the primary's, unhedged", val, winner, hedged, err)
	}
	if called(b) {
		t.Fatal("a stale fire launched the backup of a race not yet due")
	}
	if r.val != 0 || r.err != nil {
		t.Fatalf("a stale fire left a result behind: %d, %v", r.val, r.err)
	}
	if at := r.fireAt.Load(); at == 0 {
		t.Fatal("the fire did not re-arm the watchdog for the race in flight")
	}
}

// A race whose backup won cancelled the leg context; the next race on
// the same Racer, under the same caller context, must not inherit that.
func TestRacerFreshLegContextAfterHedge(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	block := make(chan struct{})
	var r Racer[int]
	defer r.Release()

	p, b := newScript(block, nil), newScript(nil, nil)
	if _, winner, hedged, err := r.Race(ctx, Now(), soon, primary, backup, legs(p, b), nil); winner != backup || !hedged || err != nil {
		t.Fatalf("first race: winner %d hedged %v err %v, want the backup's", winner, hedged, err)
	}
	if !errors.Is(p.ctxErr, context.Canceled) {
		t.Fatalf("the losing primary returned on %v, want a cancelled context", p.ctxErr)
	}

	var legErr error
	_, winner, hedged, err := r.Race(ctx, Now(), never, primary, backup, func(ctx context.Context, target int, _ bool) (int, error) {
		legErr = ctx.Err()
		return target, nil
	}, nil)
	if winner != primary || hedged || err != nil {
		t.Fatalf("second race: winner %d hedged %v err %v", winner, hedged, err)
	}
	if legErr != nil {
		t.Fatalf("second race's primary was handed a dead context: %v", legErr)
	}
	settle(t, baseline)
}

// The leg context follows the caller's: a race under a new context sees
// that context's values, outlives the old one's cancellation and ends
// with the new one's.
func TestRacerParentContextChanges(t *testing.T) {
	type key struct{}
	ctxA, cancelA := context.WithCancel(context.WithValue(context.Background(), key{}, "a"))
	ctxB, cancelB := context.WithCancel(context.WithValue(context.Background(), key{}, "b"))
	defer cancelA()
	defer cancelB()
	var r Racer[int]
	defer r.Release()

	var saw any
	var sawErr error
	look := func(ctx context.Context, target int, _ bool) (int, error) {
		saw, sawErr = ctx.Value(key{}), ctx.Err()
		return target, nil
	}
	for _, tc := range []struct {
		ctx  context.Context
		want string
	}{{ctxA, "a"}, {ctxA, "a"}, {ctxB, "b"}} {
		if tc.want == "b" {
			cancelA() // the previous races' parent; nothing of it may reach this race
		}
		if _, _, _, err := r.Race(tc.ctx, Now(), never, primary, backup, look, nil); err != nil {
			t.Fatal(err)
		}
		if saw != tc.want || sawErr != nil {
			t.Fatalf("leg saw value %v, err %v; want %q on a live context", saw, sawErr, tc.want)
		}
	}

	// And the new parent's cancellation does reach the leg.
	p := newScript(make(chan struct{}), nil)
	go func() {
		<-p.started
		cancelB()
	}()
	if _, _, _, err := r.Race(ctxB, Now(), never, primary, backup, legs(p, newScript(nil, nil)), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after the caller cancelled, want context.Canceled", err)
	}
	if !errors.Is(p.ctxErr, context.Canceled) {
		t.Fatalf("the primary returned on %v, want the caller's cancellation", p.ctxErr)
	}
}

// TestRace's "caller cancels mid-race", on a Racer with a history: both
// legs are drained before Race returns and no goroutine is left.
func TestRacerCancelMidRaceOnReusedRacer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	block := make(chan struct{})
	var r Racer[int]
	defer r.Release()

	warm, cancelWarm := context.WithCancel(context.Background())
	backupCalls := 0
	for i := 0; i < 100; i++ {
		if _, _, hedged, err := r.Race(warm, Now(), never, primary, backup, instant(&backupCalls), nil); hedged || err != nil {
			t.Fatalf("warm-up race %d: hedged %v err %v", i, hedged, err)
		}
	}
	cancelWarm()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, b := newScript(block, nil), newScript(block, nil)
	go func() {
		<-p.started
		<-b.started
		cancel()
	}()
	_, winner, hedged, err := r.Race(ctx, Now(), soon, primary, backup, legs(p, b), preferFirst)
	for _, s := range []*script{p, b} {
		select {
		case <-s.done:
		default:
			t.Fatal("Race returned with a leg still running")
		}
	}
	if !errors.Is(err, context.Canceled) || winner != primary || !hedged {
		t.Fatalf("winner %d hedged %v err %v, want %d true context.Canceled", winner, hedged, err, primary)
	}
	if !errors.Is(p.ctxErr, context.Canceled) || !errors.Is(b.ctxErr, context.Canceled) {
		t.Fatalf("legs returned on %v / %v, want both cancelled", p.ctxErr, b.ctxErr)
	}
	r.Release()
	settle(t, baseline)
}

// The point of the Racer: with a backup to race and a delay to arm, a
// read that answers in time allocates nothing — no context, no timer, no
// closure, no result holder.
func TestRacerUnhedgedRaceAllocatesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r Racer[int]
	defer r.Release()
	leg := func(_ context.Context, target int, _ bool) (int, error) { return target, nil }
	race := func() {
		if _, winner, hedged, err := r.Race(ctx, Now(), never, primary, backup, leg, nil); winner != primary || hedged || err != nil {
			t.Fatalf("winner %d hedged %v err %v", winner, hedged, err)
		}
	}
	race() // the first race makes the leg context and the watchdog
	if allocs := testing.AllocsPerRun(1000, race); allocs != 0 {
		t.Fatalf("an unhedged race with a backup and a delay allocates %v times", allocs)
	}
}

// The watchdog and the caller contend for every race that ends about as
// it comes due. Whoever wins the compare-and-swap, the books must
// balance: a race reports hedged exactly when its backup leg ran, that
// leg ran once and inside the race, and the value is the winner's.
func TestRacerWatchdogRacesThePrimary(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r Racer[int]
	defer r.Release()

	var inRace atomic.Bool
	var backups atomic.Int32
	spins := 0
	leg := func(ctx context.Context, target int, hedge bool) (int, error) {
		if !inRace.Load() {
			t.Error("a leg ran outside its race")
		}
		if hedge {
			backups.Add(1)
			return target, nil
		}
		for i := 0; i < spins && ctx.Err() == nil; i++ {
			runtime.Gosched()
		}
		return target, nil
	}
	hedges := 0
	for i := 0; i < 20000; i++ {
		spins = i % 7
		backups.Store(0)
		inRace.Store(true)
		val, winner, hedged, err := r.Race(ctx, Now(), soon, primary, backup, leg, nil)
		inRace.Store(false)
		if err != nil || val != winner {
			t.Fatalf("race %d: value %d winner %d err %v", i, val, winner, err)
		}
		if got := backups.Load(); hedged != (got == 1) || got > 1 {
			t.Fatalf("race %d: hedged %v, %d backup legs", i, hedged, got)
		}
		if hedged {
			hedges++
		}
	}
	t.Logf("%d of 20000 races hedged", hedges)
	r.Release()
	settle(t, baseline)
}

// A gate that declines leaves the race unhedged: no backup leg runs
// beside the primary, and the Racer's next race is unaffected. A primary
// that fails after the decline still fails over at once, on the caller's
// goroutine.
func TestRacerDeclinedGateLaunchesNoBackup(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r Racer[int]
	defer r.Release()
	asked := make(chan [2]int, 1)
	r.Gate = func(p, b int) bool {
		asked <- [2]int{p, b}
		return false
	}

	for _, tc := range []struct {
		name       string
		err        error // the primary's outcome
		wantWinner int
	}{
		{"primary answers", nil, primary},
		{"primary fails", errFailStop, backup},
	} {
		gate := make(chan struct{})
		p, b := newScript(gate, tc.err), newScript(nil, nil)
		go func() {
			// The race comes due while its primary is gated: the watchdog
			// claims it and asks the gate, which declines.
			if got := <-asked; got != [2]int{primary, backup} {
				t.Errorf("%s: gate asked of %v, want [%d %d]", tc.name, got, primary, backup)
			}
			close(gate)
		}()
		backupAfterPrimary := false
		val, winner, hedged, err := r.Race(ctx, Now(), soon, primary, backup, func(ctx context.Context, target int, hedge bool) (int, error) {
			if target == backup {
				backupAfterPrimary = hedge && called(p) && isClosed(p.done)
			}
			return legs(p, b)(ctx, target, hedge)
		}, nil)
		if err != nil || winner != tc.wantWinner || val != tc.wantWinner {
			t.Fatalf("%s: value %d winner %d err %v, want %d's", tc.name, val, winner, err, tc.wantWinner)
		}
		if tc.err == nil && (hedged || called(b)) {
			t.Fatalf("%s: hedged %v, backup called %v: a declined race ran its backup", tc.name, hedged, called(b))
		}
		if tc.err != nil && (!hedged || !backupAfterPrimary) {
			t.Fatalf("%s: hedged %v, backup after the failed primary %v: want the failover", tc.name, hedged, backupAfterPrimary)
		}
		if errors.Is(p.ctxErr, context.Canceled) {
			t.Fatalf("%s: a declined race cancelled its primary", tc.name)
		}
		if st := r.state.Load(); st != idle {
			t.Fatalf("%s: state %#x after the race, want idle", tc.name, st)
		}
	}

	// The leg context survives a decline: the next race runs on it, and a
	// gate that lets the backup go hedges as ever.
	r.Gate = func(int, int) bool { return true }
	p, b := newScript(make(chan struct{}), nil), newScript(nil, nil)
	if _, winner, hedged, err := r.Race(ctx, Now(), soon, primary, backup, legs(p, b), nil); winner != backup || !hedged || err != nil {
		t.Fatalf("after the declines: winner %d hedged %v err %v, want the backup's", winner, hedged, err)
	}
	settle(t, baseline)
}

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Races that share one start stamp — a batch of reads timed from the
// batch's stamp — are each moved just past the previous race's, and the
// watchdog judges each by its moved stamp: a shared stamp far older than
// the delay hedges none of them while the stamp the Racer moved it past
// is young.
func TestRacerSharedStampJudgedFromBumpedStamps(t *testing.T) {
	const after = 50 * time.Millisecond
	for Now() <= 3*int64(after) {
		runtime.Gosched() // stamps count from package load; the shared one must be positive
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r Racer[int]
	defer r.Release()

	backupCalls := 0
	leg := instant(&backupCalls)
	young := Now()
	if _, _, hedged, err := r.Race(ctx, young, after, primary, backup, leg, nil); hedged || err != nil {
		t.Fatalf("first race: hedged %v err %v", hedged, err)
	}
	shared := young - 2*int64(after) // overdue, judged as given
	for i := int64(1); i <= 3; i++ {
		var stamp int64
		_, winner, hedged, err := r.Race(ctx, shared, after, primary, backup, func(ctx context.Context, target int, hedge bool) (int, error) {
			if target == primary {
				stamp = int64(r.state.Load() >> phaseBits)
				r.watch() // a fire now: due by the shared stamp, not by the moved one
			}
			return leg(ctx, target, hedge)
		}, nil)
		if winner != primary || hedged || err != nil || backupCalls != 0 {
			t.Fatalf("race %d at the shared stamp: winner %d hedged %v err %v, %d backup legs: judged from the stamp as given", i, winner, hedged, err, backupCalls)
		}
		if stamp != young+i {
			t.Fatalf("race %d ran at stamp %d, want %d: just past the previous race's", i, stamp-young, i)
		}
	}
}
