package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/grid"
	"decluster/internal/obs"
	"decluster/internal/repair"
	"decluster/internal/serve"
)

// MigrateConfig drives one online membership change end to end.
type MigrateConfig struct {
	// Plan is the join/leave plan to execute (required).
	Plan *MigrationPlan
	// Endpoints holds one base URL per member, indexed by stable member
	// ID; it must cover every member of both the From and To maps (the
	// joiner's standby URL included).
	Endpoints []string
	// Client optionally overrides the HTTP client.
	Client *http.Client
	// Throttle paces bucket copies in pages per second through the same
	// debt-based token bucket the rebuilder uses; nil or zero-rate is
	// unthrottled.
	Throttle *repair.Throttle
	// FetchTimeout bounds each donor fetch and each migration POST
	// (2s when 0).
	FetchTimeout time.Duration
	// FetchAttempts bounds donor-rotation rounds per bucket and cutover
	// retries per member (8 when 0).
	FetchAttempts int
	// PageCapacity converts record counts into throttle pages (32 when 0).
	PageCapacity int
	// Obs optionally counts migration progress:
	// cluster.migrate.buckets / .records / .retries.
	Obs *obs.Sink
	// Router, when set, is kept in lockstep: the To map is staged for
	// dual-read before the first copy and adopted after the last
	// cutover ack, so reads race both epochs throughout the handoff.
	Router *Router
	// Progress, when set, observes every step — tests use it to inject
	// a crash (cancel the context) at an exact point mid-migration.
	Progress func(ev MigrateEvent)
}

// MigrateEvent is one Progress observation.
type MigrateEvent struct {
	// Phase is "prepare", "copy", "cutover", "abort", or "adopt".
	Phase string
	// Member is the member the step touched (dest for copies).
	Member int
	// Buckets is the cumulative bucket count copied so far.
	Buckets int
}

// MigrateStats summarises one executed migration.
type MigrateStats struct {
	// Moves, Buckets, Records copied to destinations.
	Moves, Buckets, Records int
	// Pages is the paced I/O cost charged to the throttle.
	Pages int
	// Retries counts donor fetches that failed and were retried.
	Retries int
	// Elapsed is the wall-clock migration time.
	Elapsed time.Duration
	// Aborted reports the migration rolled back to the From epoch.
	Aborted bool
}

// Migrate executes a membership change online:
//
//	PREPARE  every member of both maps stages the To map; incoming
//	         buckets will accumulate in a staging file, invisible to
//	         the live stack.
//	COPY     every planned bucket streams from a From-epoch donor to
//	         its destination's staging file, at serve.MigrationPriority
//	         (below every foreground query, above background repair),
//	         paced by the throttle. Reads keep flowing the whole time:
//	         the From epoch stays authoritative, and the router (when
//	         wired) races an opportunistic To-epoch leg that succeeds
//	         exactly when every bucket it needs has landed.
//	CUTOVER  every member atomically promotes the To map; each node
//	         refuses unless all its newly hosted buckets arrived, so a
//	         lost bucket aborts loudly instead of vanishing silently.
//	ADOPT    the router switches to the To epoch.
//
// Any error — or context cancellation — before the first cutover ack
// rolls everything back with ABORT: staging files are dropped, the From
// epoch remains the one and only truth, and a later re-run starts
// cleanly. After some member has cut over, Migrate keeps retrying the
// remaining cutovers (they are idempotent) rather than aborting, since
// a cutover cannot be undone; nodes left behind still answer the old
// epoch via their prev map until a re-run finishes the job.
func Migrate(ctx context.Context, cfg MigrateConfig) (MigrateStats, error) {
	var st MigrateStats
	start := time.Now()
	p := cfg.Plan
	if p == nil || p.From == nil || p.To == nil {
		return st, fmt.Errorf("cluster: migrate needs a plan")
	}
	members := unionMembers(p.From, p.To)
	for _, m := range members {
		if m >= len(cfg.Endpoints) || cfg.Endpoints[m] == "" {
			return st, fmt.Errorf("cluster: no endpoint for member %d", m)
		}
	}
	cp := newCopier(copier{
		g: p.To.Grid(), client: cfg.Client, endpoints: cfg.Endpoints,
		timeout: cfg.FetchTimeout, attempts: cfg.FetchAttempts,
		priority: serve.MigrationPriority, epoch: p.From.Epoch(),
		capacity: cfg.PageCapacity, throttle: cfg.Throttle,
	}, cfg.Obs, "cluster.migrate")
	progress := cfg.Progress
	if progress == nil {
		progress = func(MigrateEvent) {}
	}
	abort := func(cause error) (MigrateStats, error) {
		st.Aborted = true
		st.Elapsed = time.Since(start)
		abortAll(cp, cfg.Router, members, p.To.Epoch())
		progress(MigrateEvent{Phase: "abort", Buckets: st.Buckets})
		return st, fmt.Errorf("cluster: migration to epoch %d aborted: %w", p.To.Epoch(), cause)
	}

	// PREPARE.
	wm := toWireMap(p.To)
	for _, m := range members {
		if err := cp.post(ctx, m, "prepare", prepareRequest{Map: wm}); err != nil {
			return abort(fmt.Errorf("prepare member %d: %w", m, err))
		}
		progress(MigrateEvent{Phase: "prepare", Member: m})
	}
	if cfg.Router != nil {
		cfg.Router.StagePending(p.To)
	}

	// COPY.
	err := cp.run(ctx, p.Moves, func(dest int, cell grid.Coord, recs []datagen.Record) error {
		if err := cp.post(ctx, dest, "bucket", &recordPage{
			Epoch: p.To.Epoch(), Buckets: 1, Cell: cell, Records: recs,
		}); err != nil {
			return fmt.Errorf("ingest cell %v on member %d: %w", cell, dest, err)
		}
		// The copier counts a bucket once deliver returns: this one is next.
		progress(MigrateEvent{Phase: "copy", Member: dest, Buckets: cp.buckets + 1})
		return nil
	})
	st.Moves, st.Buckets, st.Records, st.Pages, st.Retries = cp.moves, cp.buckets, cp.records, cp.pages, cp.retries
	if err != nil {
		return abort(err)
	}

	// CUTOVER. Before the first ack a failure aborts cleanly; after it,
	// the change is committed and the only way out is through — retry
	// the idempotent cutovers until every member promotes.
	acked := 0
	for _, m := range members {
		var err error
		for round := 0; round < cp.attempts; round++ {
			if err = cp.post(ctx, m, "cutover", epochRequest{Epoch: p.To.Epoch()}); err == nil {
				break
			}
			if ctx.Err() != nil || acked == 0 {
				break
			}
			if sleepCtx(ctx, time.Duration(round+1)*5*time.Millisecond) != nil {
				break
			}
		}
		if err != nil {
			if acked == 0 {
				return abort(fmt.Errorf("cutover member %d: %w", m, err))
			}
			st.Elapsed = time.Since(start)
			return st, fmt.Errorf("cluster: cutover to epoch %d incomplete: member %d: %w (re-run to finish; %d/%d members promoted)",
				p.To.Epoch(), m, err, acked, len(members))
		}
		acked++
		progress(MigrateEvent{Phase: "cutover", Member: m})
	}

	if cfg.Router != nil {
		cfg.Router.Adopt(p.To)
		progress(MigrateEvent{Phase: "adopt"})
	}
	st.Elapsed = time.Since(start)
	return st, nil
}

// abortAll best-effort aborts the staged epoch everywhere. It runs on a
// fresh short-lived context: the caller's context is typically already
// cancelled (that may be exactly why we are aborting), and the rollback
// must still go out.
func abortAll(cp *copier, rt *Router, members []int, epoch uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, m := range members {
		_ = cp.post(ctx, m, "abort", epochRequest{Epoch: epoch})
	}
	if rt != nil {
		rt.ClearPending()
	}
}

// unionMembers lists every member of either map, ascending.
func unionMembers(a, b *ShardMap) []int {
	seen := map[int]bool{}
	var out []int
	for _, ms := range [][]int{a.Members(), b.Members()} {
		for _, m := range ms {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	sort.Ints(out)
	return out
}

// post performs one POST /v1/migrate/<step> exchange.
func (c *copier) post(ctx context.Context, member int, step string, payload any) error {
	url := strings.TrimRight(c.endpoints[member], "/") + "/v1/migrate/" + step
	return exchange(ctx, c.client, c.timeout, url, payload, nil, recordPayloadLimit)
}
