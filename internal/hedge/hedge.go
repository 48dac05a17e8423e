// Package hedge holds the one decision the serving stack makes at two
// levels — disks under a scheduler, nodes under a router: when is a
// second replica read worth issuing, and how do the two legs end.
package hedge

import (
	"context"
	"sync"
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

// Race runs leg against primary on the caller's goroutine and, when the
// primary is still unanswered after the delay, a second leg against
// backup (hedge=true) beside it. The first success wins; the loser's
// context is cancelled and Race waits for it to return, so whatever a
// leg observes (health samples, metrics, spans) has landed when Race
// does. A primary that fails before the backup started launches it at
// once, whatever the delay: that is failover for a read that already
// failed, not a bet on latency, so callers do not gate it — after <= 0
// arms no timer and leaves only this failover. When both legs fail,
// prefer picks the reported error from (primary's, backup's); a
// cancelled caller gets ctx.Err(). backup < 0 means there is nothing to
// race: the primary runs inline and Race allocates nothing.
//
// Legs must return promptly once their context is cancelled.
func Race[T any](ctx context.Context, after time.Duration, primary, backup int,
	leg func(ctx context.Context, target int, hedge bool) (T, error),
	prefer func(cur, next error) error) (val T, winner int, hedged bool, err error) {
	if backup < 0 {
		val, err = leg(ctx, primary, false)
		return val, primary, false, err
	}

	// Only a timed backup runs beside the primary, so only it needs a
	// context to cancel and a place to leave its result; the failover
	// leg follows the primary on this goroutine.
	var timed struct {
		wg  sync.WaitGroup
		val T
		err error
	}
	if after > 0 {
		legCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		timed.wg.Add(1)
		timer := time.AfterFunc(after, func() {
			defer timed.wg.Done()
			if timed.val, timed.err = leg(legCtx, backup, true); timed.err == nil {
				cancel() // the primary lost
			}
		})
		val, err = leg(legCtx, primary, false)
		if hedged = !timer.Stop(); hedged {
			if err == nil {
				cancel() // the backup lost
			}
			timed.wg.Wait()
		}
	} else {
		val, err = leg(ctx, primary, false)
	}
	if err == nil {
		return val, primary, hedged, nil
	}

	bval, berr := timed.val, timed.err
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
