package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
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
	// Obs optionally counts migration progress:
	// cluster.migrate.buckets / .records / .retries.
	Obs *obs.Sink
	// Router, when set, adopts the To map after the last cutover ack;
	// until then it keeps reading the From epoch, which stays
	// authoritative throughout the handoff.
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

// cutoverBackoff paces a committed migration's cutover retries to one
// member: 5ms doubling, capped at 40ms.
var cutoverBackoff = exec.RetryPolicy{BaseBackoff: 5 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}

// Migrate executes a membership change online:
//
//	PREPARE  every member of both maps stages the To map.
//	COPY     every planned bucket streams from a From-epoch donor into
//	         its destination's live file — inserted only where absent,
//	         and unread by any From-epoch query — at
//	         serve.MigrationPriority (below every foreground query,
//	         above background repair), paced by the throttle. A donor
//	         whose page the destination refuses has failed, and the next
//	         donor is tried. Reads keep flowing the whole time: the From
//	         epoch stays authoritative.
//	CUTOVER  every member atomically promotes the To map; each node
//	         refuses unless all its newly hosted buckets arrived, so a
//	         lost bucket aborts loudly instead of vanishing silently.
//	ADOPT    the router switches to the To epoch.
//
// Any error — or context cancellation — before the first cutover ack
// rolls everything back with ABORT: the staged To map is dropped, the
// From epoch remains the one and only truth, and a later re-run carries
// the change through without inserting an ingested bucket twice. After
// some member has cut over, Migrate keeps retrying the remaining
// cutovers (they are idempotent) rather than aborting, since a cutover
// cannot be undone; nodes left behind still answer the old epoch via
// their prev map until a re-run finishes the job. A re-run of the same
// plan learns at PREPARE that some member is already at the To epoch;
// no cutover starts before COPY is done, so it skips COPY and resumes
// at CUTOVER (a plan every member has cut over to re-runs as a no-op).
// A plan whose To epoch a member is at under another map — one made
// from a map the cluster has left — is refused at PREPARE and aborted.
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
		g: p.To.Grid(), client: cfg.Client, endpoints: cfg.Endpoints, timeout: cfg.FetchTimeout,
		priority: serve.MigrationPriority, epoch: p.From.Epoch(),
	})
	ccfg := copyConfig(cfg.FetchAttempts, cfg.Throttle)
	progress := cfg.Progress
	if progress == nil {
		progress = func(MigrateEvent) {}
	}
	abort := func(cause error) (MigrateStats, error) {
		st.Aborted = true
		st.Elapsed = time.Since(start)
		abortAll(cp, members, p.To.Epoch())
		progress(MigrateEvent{Phase: "abort", Buckets: st.Buckets})
		return st, fmt.Errorf("cluster: migration to epoch %d aborted: %w", p.To.Epoch(), cause)
	}

	// PREPARE.
	wm := toWireMap(p.To)
	moves := p.Moves
	for _, m := range members {
		var ack epochResponse
		if err := cp.post(ctx, m, "prepare", prepareRequest{Map: wm}, &ack); err != nil {
			return abort(fmt.Errorf("prepare member %d: %w", m, err))
		}
		if ack.Epoch == p.To.Epoch() {
			moves = nil // m cut over, so COPY is done: this is a re-run
		}
		progress(MigrateEvent{Phase: "prepare", Member: m})
	}

	// COPY.
	moved, cr, err := copyMoves(ctx, cp, moves, ccfg, func(dest int, cell grid.Coord, recs []datagen.Record) error {
		if err := cp.post(ctx, dest, "bucket", &recordPage{
			Epoch: p.To.Epoch(), Buckets: 1, Cell: cell, Records: recs,
		}, nil); err != nil {
			return err
		}
		st.Buckets++
		progress(MigrateEvent{Phase: "copy", Member: dest, Buckets: st.Buckets})
		return nil
	})
	countCopy(cfg.Obs, "cluster.migrate", cr)
	st.Moves, st.Buckets, st.Records, st.Pages, st.Retries = moved, cr.Buckets, cr.Records, cr.Pages, cr.Retries
	if err != nil {
		return abort(err)
	}

	// CUTOVER. Before the first ack a failure aborts cleanly; after it,
	// the change is committed and the only way out is through — retry
	// the idempotent cutovers until every member promotes.
	acked := 0
	for _, m := range members {
		var err error
		for round := 0; round < ccfg.Rounds; round++ {
			if err = cp.post(ctx, m, "cutover", epochRequest{Epoch: p.To.Epoch()}, nil); err == nil {
				break
			}
			if ctx.Err() != nil || acked == 0 {
				break
			}
			if cutoverBackoff.Wait(ctx, round+1) != nil {
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
func abortAll(cp *copier, members []int, epoch uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, m := range members {
		_ = cp.post(ctx, m, "abort", epochRequest{Epoch: epoch}, nil)
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

// post performs one POST /v1/migrate/<step> exchange, decoding the
// answer into out unless it is nil.
func (c *copier) post(ctx context.Context, member int, step string, payload, out any) error {
	body, contentType, err := encodeBody(payload)
	if err != nil {
		return err
	}
	to, err := newRoute(strings.TrimRight(c.endpoints[member], "/")+"/v1/migrate/"+step, contentType)
	if err != nil {
		return err
	}
	return exchange(ctx, c.client, c.timeout, &to, body, out, recordPayloadLimit)
}
