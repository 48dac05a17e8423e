package repair

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/gridfile"
)

// ErrNoDonor fails a bucket whose every donor was Silent for
// noDonorRounds rounds in a row: donors that shed load earn more
// rounds, silent ones do not. It also matches fault.ErrUnavailable.
var ErrNoDonor = errors.New("repair: every donor silent")

// noDonorRounds is the all-silent fuse: two rounds filter out one
// coincident blip without holding a doomed copy for its whole budget.
const noDonorRounds = 2

// CopyConfig paces Copy.
type CopyConfig struct {
	Parallel     int              // buckets copied concurrently (1 when 0)
	Throttle     *Throttle        // charged each landed bucket's pages; nil is unpaced
	Backoff      exec.RetryPolicy // spaces the rounds through a bucket's donors
	Rounds       int              // rounds one bucket may take (0 = unbounded)
	PageCapacity int              // records per page (gridfile.DefaultPageCapacity when 0)
}

// CopyReport counts what landed — a bucket is ⌈records/PageCapacity⌉
// pages, and at least one: an empty bucket still costs a read — and the
// failed tries that were retried.
type CopyReport struct {
	Buckets, Records, Pages, Retries int
}

// Later and Silent mark a failed fetch or delivery as worth another
// try; Copy treats any other error as fatal. Later is a donor that
// answered but refused (a shed read, a page refused as bad); Silent is
// one that did not answer (a transport error or a timeout).
func Later(err error) error  { return retry{err, false} }
func Silent(err error) error { return retry{err, true} }

// retry is a Later or Silent error.
type retry struct {
	error
	silent bool
}

func (e retry) Unwrap() error { return e.error }

// Copy lands every bucket in buckets from one of donors sources: the one
// loop behind the disk rebuild, the node rebuild and migration's COPY
// phase. A bucket's round asks fetch(ctx, b, d) of donors d = 0, 1, …
// in turn and hands each page to deliver until one is accepted; then
// cfg.Throttle is charged the bucket's pages. Rounds run cfg.Backoff
// apart. After noDonorRounds all-Silent rounds in a row the bucket fails
// with ErrNoDonor, after cfg.Rounds rounds with fault.ErrUnavailable.
//
// cfg.Parallel workers copy buckets concurrently. The first error
// cancels the rest and is returned beside the counts of what landed; a
// ctx that ends first returns its error. Copy returns nil exactly when
// every bucket landed.
func Copy(ctx context.Context, buckets []int, donors int,
	fetch func(ctx context.Context, b, donor int) ([]datagen.Record, error),
	deliver func(ctx context.Context, b int, recs []datagen.Record) error,
	cfg CopyConfig) (CopyReport, error) {
	// bucket lands b, returning its records and the tries retried first.
	bucket := func(ctx context.Context, b int) (int, int, error) {
		var last error
		retries, silentRounds := 0, 0
		for round := 0; cfg.Rounds == 0 || round < cfg.Rounds; round++ {
			if round > 0 {
				if err := cfg.Backoff.Wait(ctx, round); err != nil {
					return 0, retries, err
				}
			}
			allSilent := true
			for d := 0; d < donors; d++ {
				recs, err := fetch(ctx, b, d)
				if err == nil {
					if err = deliver(ctx, b, recs); err == nil {
						return len(recs), retries, nil
					}
				}
				var r retry
				switch {
				case ctx.Err() != nil:
					return 0, retries, ctx.Err()
				case !errors.As(err, &r):
					return 0, retries, err
				}
				allSilent = allSilent && r.silent
				retries++
				last = err
			}
			if !allSilent {
				silentRounds = 0
			} else if silentRounds++; silentRounds == noDonorRounds {
				return 0, retries, fmt.Errorf("%w: %w: %d donors silent for %d rounds (last: %v)",
					ErrNoDonor, fault.ErrUnavailable, donors, silentRounds, last)
			}
		}
		return 0, retries, fmt.Errorf("%w: %d donors failed %d rounds (last: %v)",
			fault.ErrUnavailable, donors, cfg.Rounds, last)
	}

	capacity := cmp.Or(cfg.PageCapacity, gridfile.DefaultPageCapacity)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		rep      CopyReport
		firstErr error
		mu       sync.Mutex
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for w := min(max(cfg.Parallel, 1), len(buckets)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(buckets) || wctx.Err() != nil {
					return
				}
				n, retries, err := bucket(wctx, buckets[i])
				pages := max(1, (n+capacity-1)/capacity)
				mu.Lock()
				rep.Retries += retries
				if err == nil {
					rep.Buckets++
					rep.Records += n
					rep.Pages += pages
				} else if firstErr == nil {
					firstErr = fmt.Errorf("bucket %d: %w", buckets[i], err)
				}
				mu.Unlock()
				if err != nil {
					cancel()
					return
				}
				// A failed charge means wctx ended: the landed count tells.
				if cfg.Throttle.Take(wctx, float64(pages)) != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr == nil && rep.Buckets < len(buckets) {
		firstErr = ctx.Err()
	}
	return rep, firstErr
}
