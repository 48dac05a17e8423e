package hedge

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestWorth(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name                   string
		after, primary, backup time.Duration
		want                   bool
	}{
		{"cold EWMAs", 5 * ms, 0, 0, true},
		{"backup inside the delay", 5 * ms, 2 * ms, 5 * ms, true},
		{"every replica saturated", 5 * ms, 20 * ms, 20 * ms, false},
		{"backup slow, primary a known straggler", ms, 30 * ms, 3 * ms, true},
		{"backup slow, primary no slower than the hedge leg", ms, 4 * ms, 3 * ms, false},
		{"saturated replicas a hedge delay apart by noise", 5 * ms, 49 * ms, 35 * ms, false},
	}
	for _, tc := range cases {
		if got := Worth(tc.after, tc.primary, tc.backup); got != tc.want {
			t.Errorf("%s: Worth(%v, %v, %v) = %v, want %v", tc.name, tc.after, tc.primary, tc.backup, got, tc.want)
		}
	}
}

const (
	primary = 3
	backup  = 7
	never   = time.Hour        // a delay no test waits out
	soon    = time.Microsecond // a delay that fires while the primary is gated
)

// script is one leg's behaviour: it answers err once gate is closed
// (nil gate: at once), or its context's error if that ends first.
type script struct {
	gate <-chan struct{}
	err  error

	started chan struct{} // closed when the leg is called
	done    chan struct{} // closed when the leg returns
	hedge   bool          // the flag it was called with
	ctxErr  error         // its context's error at return
}

func newScript(gate <-chan struct{}, err error) *script {
	return &script{gate: gate, err: err, started: make(chan struct{}), done: make(chan struct{})}
}

func (s *script) run(ctx context.Context, target int, hedge bool) (int, error) {
	s.hedge = hedge
	close(s.started)
	defer close(s.done)
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			s.ctxErr = ctx.Err()
			return 0, ctx.Err()
		}
	}
	return target, s.err
}

func called(s *script) bool {
	select {
	case <-s.started:
		return true
	default:
		return false
	}
}

var (
	errFailStop  = errors.New("fail-stop")
	errTransient = errors.New("transient")
)

// preferSecond and preferFirst are the two directions a caller's rule
// can take; serve's preferTransient and cluster's preferLegError are
// each pinned through a Racer in their own packages.
func preferFirst(cur, _ error) error   { return cur }
func preferSecond(_, next error) error { return next }

func TestRace(t *testing.T) {
	block := make(chan struct{}) // never closed
	type want struct {
		winner        int
		hedged        bool
		err           error
		backupCalled  bool
		primaryCancel bool // the primary leg returned on a cancelled context
	}
	cases := []struct {
		name   string
		after  time.Duration
		legs   func() (p, b *script)
		prefer func(cur, next error) error
		cancel bool // cancel the caller's context once both legs run
		want   want
	}{
		{
			name: "primary answers before the delay", after: never,
			legs: func() (p, b *script) { return newScript(nil, nil), newScript(nil, nil) },
			want: want{winner: primary},
		},
		{
			name: "primary slow, backup wins", after: soon,
			legs: func() (p, b *script) { return newScript(block, nil), newScript(nil, nil) },
			want: want{winner: backup, hedged: true, backupCalled: true, primaryCancel: true},
		},
		{
			name: "backup slow, primary wins and the backup is drained", after: soon,
			legs: func() (p, b *script) {
				b = newScript(block, nil)
				return newScript(b.started, nil), b // the primary answers once the hedge is in flight
			},
			want: want{winner: primary, hedged: true, backupCalled: true},
		},
		{
			name: "primary fails before the delay", after: never,
			legs: func() (p, b *script) { return newScript(nil, errFailStop), newScript(nil, nil) },
			want: want{winner: backup, hedged: true, backupCalled: true},
		},
		{
			name: "primary fails with no timed hedge armed", after: 0,
			legs: func() (p, b *script) { return newScript(nil, errFailStop), newScript(nil, nil) },
			want: want{winner: backup, hedged: true, backupCalled: true},
		},
		{
			name: "both fail, prefer keeps the primary's error", after: never, prefer: preferFirst,
			legs: func() (p, b *script) { return newScript(nil, errFailStop), newScript(nil, errTransient) },
			want: want{winner: primary, hedged: true, err: errFailStop, backupCalled: true},
		},
		{
			name: "both fail, prefer takes the backup's error", after: never, prefer: preferSecond,
			legs: func() (p, b *script) { return newScript(nil, errFailStop), newScript(nil, errTransient) },
			want: want{winner: primary, hedged: true, err: errTransient, backupCalled: true},
		},
		{
			name: "timed backup fails first, then the primary", after: soon, prefer: preferSecond,
			legs: func() (p, b *script) {
				b = newScript(nil, errTransient)
				return newScript(b.done, errFailStop), b
			},
			want: want{winner: primary, hedged: true, err: errTransient, backupCalled: true},
		},
		{
			name: "caller cancels mid-race", after: soon, cancel: true,
			legs: func() (p, b *script) { return newScript(block, nil), newScript(block, nil) },
			want: want{winner: primary, hedged: true, err: context.Canceled, backupCalled: true, primaryCancel: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p, b := tc.legs()
			if tc.cancel {
				go func() {
					<-p.started
					<-b.started
					cancel()
				}()
			}
			leg := func(ctx context.Context, target int, hedge bool) (int, error) {
				if target == backup {
					return b.run(ctx, target, hedge)
				}
				return p.run(ctx, target, hedge)
			}
			var r Racer[int]
			val, winner, hedged, err := r.Race(ctx, Now(), tc.after, primary, backup, leg, tc.prefer)
			r.Release()

			// Whatever ran has returned: Race waits for the loser.
			for _, s := range []*script{p, b} {
				if called(s) {
					select {
					case <-s.done:
					default:
						t.Fatal("Race returned with a leg still running")
					}
				}
			}
			if !errors.Is(err, tc.want.err) {
				t.Fatalf("err = %v, want %v", err, tc.want.err)
			}
			if winner != tc.want.winner || hedged != tc.want.hedged {
				t.Fatalf("winner %d hedged %v, want %d %v", winner, hedged, tc.want.winner, tc.want.hedged)
			}
			if err == nil && val != winner {
				t.Fatalf("value %d is not the winner's (%d)", val, winner)
			}
			if called(b) != tc.want.backupCalled {
				t.Fatalf("backup called = %v, want %v", called(b), tc.want.backupCalled)
			}
			if called(b) && (!b.hedge || p.hedge) {
				t.Fatalf("hedge flags: primary %v backup %v, want false true", p.hedge, b.hedge)
			}
			if got := errors.Is(p.ctxErr, context.Canceled); got != tc.want.primaryCancel {
				t.Fatalf("primary saw a cancelled context = %v, want %v", got, tc.want.primaryCancel)
			}
			// The timer goroutine that ran the backup has exited (or is on
			// its last instruction — give the scheduler a moment).
			for i := 0; runtime.NumGoroutine() > baseline; i++ {
				if i == 1_000_000 {
					t.Fatalf("%d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
				}
				runtime.Gosched()
			}
		})
	}
}

func TestRaceNoBackupAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	leg := func(_ context.Context, target int, _ bool) (int, error) { return target, nil }
	var r Racer[int]
	allocs := testing.AllocsPerRun(100, func() {
		if _, winner, hedged, err := r.Race(ctx, Now(), never, primary, -1, leg, nil); winner != primary || hedged || err != nil {
			t.Fatalf("winner %d hedged %v err %v", winner, hedged, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Race with no backup allocates %v times per call", allocs)
	}
}
