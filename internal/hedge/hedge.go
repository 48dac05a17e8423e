// Package hedge holds the one decision the serving stack makes at two
// levels — disks under a scheduler, nodes under a router: when is a
// second replica read worth issuing, and how do the two legs end.
package hedge

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Worth is the latency gate on the timed hedge, over the smoothed (EWMA)
// latencies of the two targets. A timed hedge bets that the backup
// answers before the straggling primary does; a backup whose typical
// latency already exceeds the hedge delay loses that bet on average, and
// under saturation the extra leg only deepens the queues that made the
// primary slow (slow → hedge → slower). The exception is a primary known
// to be a straggler: when the hedge leg, delay included, beats the
// primary's typical answer, racing it is what hedging is for — without
// that clause a delay at or below a healthy read would never hedge. The
// backup's latency counts double there: equally saturated replicas
// report EWMAs that differ by more than a hedge delay from noise alone,
// and that difference must not read as a straggler.
func Worth(after, primary, backup time.Duration) bool {
	return backup <= after || after+2*backup < primary
}

// Racer runs hedged races one after another, without a per-race
// context, timer or result holder. A bucket read or node call that
// answers inside the delay — nearly all of them — costs an atomic store
// and a compare-and-swap and reads no clock (its start stamp is the
// caller's), because everything a race needs outlives it:
//
//   - one watchdog timer serves every race. It is armed lazily and when
//     it fires it looks at the race in flight: none — it lapses, and the
//     next race re-arms it; one younger than its delay — it re-arms for
//     the remainder; one overdue — it claims the race and runs the
//     backup leg on its own goroutine. The delay is therefore measured
//     from the race's start, whenever the watchdog was armed.
//   - one cancellable leg context serves every race under the same
//     caller context. It is replaced only after a race that launched a
//     timed backup, the only kind that cancels it.
//
// The zero value is ready. A Racer must not run two races at once; it
// may be pooled and handed from goroutine to goroutine between races. It
// holds its last race's leg function and leg context until the next
// race, and the context and a pending watchdog until Release.
type Racer[T any] struct {
	// state is the race in flight: its start stamp shifted over a phase.
	// Stamps strictly increase from race to race, so a state word names
	// one race and a compare-and-swap on it cannot mistake a later race
	// for the one it examined. The edges:
	//
	//	idle → reading(s)        the caller, starting race s (a store)
	//	reading(s) → idle        the caller, its primary leg returned
	//	reading(s) → hedging(s)  the watchdog, once s is overdue
	//	hedging(s) → idle        the caller, after the backup leg returned
	//
	// The two edges out of reading(s) are compare-and-swaps on the same
	// word: exactly one of caller and watchdog wins it, which is what
	// "hedged" means.
	state atomic.Uint64
	// after is the delay of the race in flight, read by the watchdog
	// between two loads of state that must agree.
	after atomic.Int64
	// fireAt is the stamp the watchdog is due to fire at, 0 when none is
	// pending. Zero is always safe to read — the reader arms.
	fireAt atomic.Int64

	// The caller's, between races.
	last   int64 // the previous race's stamp
	parent context.Context

	// Written by the caller before it publishes the race in state, read
	// by the watchdog only after it has claimed that race.
	legCtx context.Context
	cancel context.CancelFunc
	backup int
	leg    func(ctx context.Context, target int, hedge bool) (T, error)

	// The backup leg's outcome: written by the watchdog before it sends
	// on done, read by the caller after it receives.
	val  T
	err  error
	done chan struct{}

	mu    sync.Mutex // arming: one Reset at a time
	timer *time.Timer
}

const (
	phaseBits = 2
	phaseMask = 1<<phaseBits - 1
	idle      = 0 // the whole word: no race in flight
	reading   = 1
	hedging   = 2
)

// epoch anchors the stamps.
var epoch = time.Now()

// Now returns a stamp: monotonic nanoseconds since the process loaded
// this package, one read of the monotonic clock and none of the wall
// clock. A stamp is positive and fits the 62 bits a Racer's state word
// leaves it for the next century and a half. Stamps from this one clock
// are what [Racer.Race] starts from, and what a caller that times its
// reads back to back can chain: the end stamp of one read is the start
// stamp of the next.
func Now() int64 { return int64(time.Since(epoch)) }

// Race runs leg against primary on the caller's goroutine and, when the
// primary is still unanswered after the delay, a second leg against
// backup (hedge=true) beside it. The first success wins; the loser's
// context is cancelled and Race waits for it to return, so whatever a
// leg observes (health samples, metrics, spans) has landed when Race
// does. A primary that fails before the backup started launches it at
// once, whatever the delay: that is failover for a read that already
// failed, not a bet on latency, so callers do not gate it — after <= 0
// arms no watchdog and leaves only this failover. When both legs fail,
// prefer picks the reported error from (primary's, backup's); a
// cancelled caller gets ctx.Err(). backup < 0 means there is nothing to
// race: the primary runs inline.
//
// start is the [Now] stamp the read began at, and the delay runs from
// it: a caller that already holds one (the end of its previous read)
// passes it, and one that does not passes Now(). A stamp already a delay
// old launches the backup at once. Stamps need not increase from call to
// call; the Racer moves one that does not just past its previous race's.
//
// Legs must return promptly once their context is cancelled. ctx is
// compared with the previous race's, so its dynamic type must be
// comparable (every context of the standard library is).
func (r *Racer[T]) Race(ctx context.Context, start int64, after time.Duration, primary, backup int,
	leg func(ctx context.Context, target int, hedge bool) (T, error),
	prefer func(cur, next error) error) (val T, winner int, hedged bool, err error) {
	if backup < 0 {
		val, err = leg(ctx, primary, false)
		return val, primary, false, err
	}

	// Only a timed backup runs beside the primary, so only it needs a
	// context to cancel and a place to leave its result; the failover
	// leg follows the primary on this goroutine.
	var bval T
	var berr error
	if after > 0 {
		if r.legCtx == nil || r.parent != ctx {
			r.dropLegCtx()
			r.parent = ctx
			r.legCtx, r.cancel = context.WithCancel(ctx)
		}
		r.backup, r.leg = backup, leg
		if r.after.Load() != int64(after) {
			r.after.Store(int64(after))
		}
		start = max(start, r.last+1)
		r.last = start
		race := uint64(start)<<phaseBits | reading
		r.state.Store(race)
		if due, at := dueAt(start, int64(after)), r.fireAt.Load(); at == 0 || at > due {
			r.arm(race, due)
		}

		val, err = leg(r.legCtx, primary, false)
		if hedged = !r.state.CompareAndSwap(race, idle); hedged {
			if err == nil {
				r.cancel() // the backup lost
			}
			<-r.done
			bval, berr = r.val, r.err
			var zero T
			r.val, r.err = zero, nil
			r.state.Store(idle)
			r.dropLegCtx() // one of the legs has, or may have, cancelled it
		}
	} else {
		val, err = leg(ctx, primary, false)
	}
	if err == nil {
		return val, primary, hedged, nil
	}

	if !hedged && ctx.Err() == nil {
		hedged = true
		bval, berr = leg(ctx, backup, true)
	}
	switch {
	case hedged && berr == nil:
		return bval, backup, true, nil
	case ctx.Err() != nil:
		err = ctx.Err()
	default:
		err = prefer(err, berr)
	}
	var zero T
	return zero, primary, hedged, err
}

// watch is the watchdog: the timer's function, on the timer's goroutine.
// A fire is never stale — it carries no race of its own and judges
// whichever one it finds by that race's own start — so one that lands
// after the Racer went back to a pool and out again to another caller
// can neither hedge the new race early nor touch the old one's result.
func (r *Racer[T]) watch() {
	r.fireAt.Store(0) // this fire is spent; whoever needs another arms it
	for {
		race := r.state.Load()
		if race&phaseMask != reading {
			// Nothing to guard. A race starting now loads fireAt after
			// storing state, so it sees the zero above and arms — or its
			// store came first and this load would have seen it.
			return
		}
		after := r.after.Load()
		if r.state.Load() != race {
			continue // after may be a later race's
		}
		if due := dueAt(int64(race>>phaseBits), after); due > Now() {
			r.arm(race, due)
			return
		}
		if r.state.CompareAndSwap(race, race&^phaseMask|hedging) {
			break
		}
		// The race ended as it came due; look at what followed it.
	}
	// The caller now waits on done, so the race's fields hold still.
	r.val, r.err = r.leg(r.legCtx, r.backup, true)
	if r.err == nil {
		r.cancel() // the primary lost
	}
	r.done <- struct{}{}
}

// dueAt is the stamp a race started at start comes due at, saturating
// for a delay that stands for "never".
func dueAt(start, after int64) int64 {
	if after > math.MaxInt64-start {
		return math.MaxInt64
	}
	return start + after
}

// arm makes sure the watchdog fires at or before due, the stamp race
// comes due at, unless race is over by now: then whatever followed it
// found fireAt zero and armed for itself, and a Racer at rest (Release
// takes the same lock) is left with no timer pending. Pending fires
// only ever move earlier; an early one costs a look and a re-arm.
func (r *Racer[T]) arm(race uint64, due int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if at := r.fireAt.Load(); r.state.Load() != race || at != 0 && at <= due {
		return
	}
	// fireAt before the timer: the fire's own store of zero must come
	// second, or a spent watchdog would read as pending for good.
	r.fireAt.Store(due)
	wait := time.Duration(due - Now())
	if r.timer == nil {
		r.done = make(chan struct{}, 1) // one send per hedged race, received before the next race starts
		r.timer = time.AfterFunc(wait, r.watch)
	} else {
		r.timer.Reset(wait)
	}
}

// dropLegCtx cancels the leg context, which also unhooks it from its
// parent, and forgets both.
func (r *Racer[T]) dropLegCtx() {
	if r.cancel != nil {
		r.cancel()
	}
	r.parent, r.legCtx, r.cancel = nil, nil, nil
}

// Release stops the watchdog and drops the leg context. A Racer that is
// discarded while its caller context lives on, or after racing with a
// long delay, needs it; one that will race again soon under contexts
// that end anyway (a pooled Racer under per-query contexts) does not. A
// released Racer is ready for reuse.
func (r *Racer[T]) Release() {
	r.mu.Lock()
	if r.timer != nil {
		r.timer.Stop()
		r.fireAt.Store(0)
	}
	r.mu.Unlock()
	r.dropLegCtx()
}
