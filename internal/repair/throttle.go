package repair

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"decluster/internal/obs"
)

// Throttle paces page I/O with a token bucket: Take(n) blocks until n
// tokens are available, where tokens accrue at rate per second up to
// burst. Debt-based: a take larger than the current balance sleeps
// exactly the refill time of the shortfall, so pacing is smooth even
// when bucket sizes vary. Copy charges it for the disk rebuild and for
// migration; a node rebuild and a scrub sweep run unpaced. A nil
// Throttle never blocks (unthrottled).
type Throttle struct {
	rate  float64 // tokens per second
	burst float64
	// taken counts tokens granted; nil (no-op) until AttachObserver.
	taken *obs.Counter

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewThrottle builds a throttle granting rate tokens per second with
// the given burst headroom (≤ 0 selects one second of rate). Rate 0
// returns a nil, never-blocking throttle. A negative rate and a NaN or
// infinite one are refused, as are a NaN and a +Inf burst: each would
// make Take's arithmetic grant tokens without waiting.
func NewThrottle(rate, burst float64) (*Throttle, error) {
	if !(rate >= 0) || math.IsInf(rate, 1) || math.IsNaN(burst) || math.IsInf(burst, 1) {
		return nil, fmt.Errorf("repair: throttle rate %v and burst %v must be finite, the rate ≥ 0", rate, burst)
	}
	if rate == 0 {
		return nil, nil
	}
	if burst <= 0 {
		burst = rate // one second of headroom by default
	}
	if burst < 1 {
		burst = 1
	}
	return &Throttle{rate: rate, burst: burst, tokens: burst, last: time.Now()}, nil
}

// AttachObserver counts granted tokens on the named counter in the
// sink's registry. A nil sink (or unthrottled throttle) is a no-op.
func (t *Throttle) AttachObserver(s *obs.Sink, name string) {
	if t == nil || s == nil {
		return
	}
	t.taken = s.Registry().Counter(name)
}

// Take blocks until n tokens are available or ctx ends.
func (t *Throttle) Take(ctx context.Context, n float64) error {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	now := time.Now()
	t.tokens += now.Sub(t.last).Seconds() * t.rate
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	t.last = now
	t.tokens -= n
	debt := -t.tokens
	t.mu.Unlock()
	t.taken.Add(uint64(n))
	if debt <= 0 {
		return nil
	}
	wait := time.Duration(debt / t.rate * float64(time.Second))
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
