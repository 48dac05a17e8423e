package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/obs"
	"decluster/internal/repair"
)

// ErrNoDonor fails a rebuild or migration bucket whose every replica
// holder was hard-down (repair.Copy's all-silent fuse). It also matches
// fault.ErrUnavailable.
var ErrNoDonor = repair.ErrNoDonor

// donorBackoff paces the rounds through a bucket's donor list: 1ms
// doubling, capped at 50ms.
var donorBackoff = exec.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond}

// RebuildConfig drives the cluster analogue of the disk rebuilder: a
// node that lost its data is refilled bucket-by-bucket from the peer
// replicas of every shard it hosts, reading at background priority so
// foreground queries on the donor nodes always win admission.
type RebuildConfig struct {
	// Map is the cluster's shard map.
	Map *ShardMap
	// Endpoints holds one base URL per member, indexed by stable member
	// ID; it must cover every member of the map.
	Endpoints []string
	// Client optionally overrides the HTTP client.
	Client *http.Client
	// FetchTimeout bounds each bucket fetch from a donor (2s when 0).
	FetchTimeout time.Duration
	// FetchAttempts bounds the rounds through the donor list one bucket
	// may take (8 when 0): donors shed background reads under foreground
	// load, so patience is what lets a rebuild progress. Two rounds in
	// which every donor is silent fail fast with ErrNoDonor instead.
	FetchAttempts int
	// Obs optionally counts rebuild progress:
	// cluster.rebuild.buckets / .records / .retries.
	Obs *obs.Sink
}

// RebuildStats summarises one node rebuild.
type RebuildStats struct {
	// Shards, Buckets, Records recovered onto the target.
	Shards, Buckets, Records int
	// Pages is the I/O cost in pages of gridfile.DefaultPageCapacity
	// records.
	Pages int
	// Retries counts donor fetches that failed and were retried
	// against another replica.
	Retries int
	// Elapsed is the wall-clock rebuild time.
	Elapsed time.Duration
}

// RebuildNode restores target's hosted shards from their peer replicas:
// it wipes the node, streams every hosted bucket from a surviving
// replica holder over HTTP at repair.BackgroundPriority, and returns
// the node to serving. Call while the target is crashed (its HTTP
// surface refuses traffic) or freshly restarted; the donors keep
// serving queries throughout. A shard whose every peer replica is down
// fails the rebuild with fault.ErrUnavailable — the data exists nowhere
// — and a donor set that is entirely hard-down fails fast with
// ErrNoDonor rather than retrying into the void.
func RebuildNode(ctx context.Context, cfg RebuildConfig, target *Node) (RebuildStats, error) {
	var st RebuildStats
	if cfg.Map == nil {
		return st, fmt.Errorf("cluster: rebuild needs a shard map")
	}
	if len(cfg.Endpoints) <= cfg.Map.MaxMember() {
		return st, fmt.Errorf("cluster: %d endpoints for members up to %d", len(cfg.Endpoints), cfg.Map.MaxMember())
	}
	cp := newCopier(copier{
		g: cfg.Map.Grid(), client: cfg.Client, endpoints: cfg.Endpoints, timeout: cfg.FetchTimeout,
		priority: repair.BackgroundPriority, epoch: cfg.Map.Epoch(),
	})

	start := time.Now()
	if err := target.BeginRebuild(); err != nil {
		return st, err
	}
	// A wiped node's hosted shards are one move each: same map on both
	// sides, nothing already held.
	moved, cr, err := copyMoves(ctx, cp, fill(cfg.Map, cfg.Map, target.ID(), true), copyConfig(cfg.FetchAttempts, nil),
		func(_ int, cell grid.Coord, recs []datagen.Record) error { return target.RebuildInsert(cell, recs) })
	countCopy(cfg.Obs, "cluster.rebuild", cr)
	st.Shards, st.Buckets, st.Records, st.Pages, st.Retries = moved, cr.Buckets, cr.Records, cr.Pages, cr.Retries
	if err != nil {
		return st, fmt.Errorf("cluster: rebuild member %d: %w", target.ID(), err)
	}
	target.FinishRebuild()
	st.Elapsed = time.Since(start)
	return st, nil
}

// copier is the HTTP half of a node rebuild or migration: a donor's
// one-bucket read at the copier's priority and epoch, and the
// /v1/migrate steps.
type copier struct {
	g         *grid.Grid
	client    *http.Client  // &http.Client{} when nil
	endpoints []string      // base URL per member, indexed by stable member ID
	timeout   time.Duration // per exchange; 2s when 0
	priority  int           // admission priority of donor reads
	epoch     uint64        // the epoch donor reads are stamped with
}

// newCopier fills c's defaults.
func newCopier(c copier) *copier {
	if c.timeout <= 0 {
		c.timeout = 2 * time.Second
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	return &c
}

// copyConfig paces a node path's repair.Copy: one bucket at a time,
// attempts rounds (8 when ≤ 0) donorBackoff apart, charged to tb, in
// pages of gridfile.DefaultPageCapacity records, as every node's file.
func copyConfig(attempts int, tb *repair.Throttle) repair.CopyConfig {
	if attempts <= 0 {
		attempts = 8
	}
	return repair.CopyConfig{Parallel: 1, Throttle: tb, Backoff: donorBackoff, Rounds: attempts}
}

// copyMoves runs repair.Copy over every move, in order, and returns how
// many moves completed and what landed. Donor d of a move is its
// Sources[d], read by cp: an answered refusal is Later, anything else
// Silent. deliver lands a page on the move's destination; the
// destination alone checks a page against its partition, and a page it
// refuses as a bad request (ErrBadRequest) is Later, so the next donor
// is tried. A move nobody else holds fails with fault.ErrUnavailable:
// the data exists nowhere.
func copyMoves(ctx context.Context, cp *copier, moves []Move, cfg repair.CopyConfig,
	deliver func(dest int, cell grid.Coord, recs []datagen.Record) error) (int, repair.CopyReport, error) {
	var sum repair.CopyReport
	for i, mv := range moves {
		if len(mv.Sources) == 0 {
			return i, sum, fmt.Errorf("%w: %d buckets of member %d have no other holder",
				fault.ErrUnavailable, len(mv.Buckets), mv.Dest)
		}
		rep, err := repair.Copy(ctx, mv.Buckets, len(mv.Sources),
			func(ctx context.Context, b, d int) ([]datagen.Record, error) {
				recs, err := cp.fetchBucketFrom(ctx, cp.endpoints[mv.Sources[d]], cp.g.Delinearize(b, nil))
				switch {
				case err == nil:
					return recs, nil
				case breakerCountable(err):
					return nil, repair.Silent(err)
				}
				return nil, repair.Later(err) // the donor answered: alive, worth another round
			},
			func(_ context.Context, b int, recs []datagen.Record) error {
				err := deliver(mv.Dest, cp.g.Delinearize(b, nil), recs)
				if errors.Is(err, ErrBadRequest) {
					return repair.Later(err)
				}
				return err
			}, cfg)
		sum.Buckets += rep.Buckets
		sum.Records += rep.Records
		sum.Pages += rep.Pages
		sum.Retries += rep.Retries
		if err != nil {
			return i, sum, fmt.Errorf("copy to member %d: %w", mv.Dest, err)
		}
	}
	return len(moves), sum, nil
}

// countCopy adds what a copy landed and retried to the sink's
// <prefix>.buckets / .records / .retries counters (nil sink: nothing).
func countCopy(sink *obs.Sink, prefix string, rep repair.CopyReport) {
	r := sink.Registry()
	r.Counter(prefix + ".buckets").Add(uint64(rep.Buckets))
	r.Counter(prefix + ".records").Add(uint64(rep.Records))
	r.Counter(prefix + ".retries").Add(uint64(rep.Retries))
}

// fetchBucketFrom reads one bucket from a donor: a one-cell /v1/query
// at the copier's priority, stamped with its epoch.
func (c *copier) fetchBucketFrom(ctx context.Context, base string, cell grid.Coord) ([]datagen.Record, error) {
	var page recordPage
	req := &readRequest{Epoch: c.epoch, Priority: c.priority, Rects: []grid.Rect{{Lo: cell, Hi: cell}}}
	body, err := req.appendTo(nil)
	if err != nil {
		return nil, err
	}
	to, err := newRoute(strings.TrimRight(base, "/")+"/v1/query", requestContentType)
	if err != nil {
		return nil, err
	}
	if err := exchange(ctx, c.client, c.timeout, &to, body, &page, recordPayloadLimit); err != nil {
		return nil, err
	}
	return page.Records, nil
}
