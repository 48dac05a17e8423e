package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/obs"
	"decluster/internal/repair"
)

// ErrNoDonor marks a rebuild or migration fetch that failed because
// every replica holder of a bucket was hard-down — transport errors or
// timeouts from all of them, repeatedly. It is the fail-fast complement
// to the patient retry loop: donors that are merely shedding load
// (overloaded, draining) earn more rounds, donors that are silent do
// not. Every ErrNoDonor also matches fault.ErrUnavailable, so existing
// "data unreachable" handling sees it without changes.
var ErrNoDonor = errors.New("cluster: every donor hard-down")

// donorBackoff paces the rounds through a bucket's donor list: 1ms
// doubling, capped at 50ms.
var donorBackoff = exec.RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond}

// noDonorRounds is how many consecutive all-hard rounds the fetch loop
// tolerates before giving up with ErrNoDonor. Two rounds filter out a
// single coincident blip without holding a doomed rebuild hostage for
// the full attempt budget.
const noDonorRounds = 2

// RebuildConfig drives the cluster analogue of the disk rebuilder: a
// node that lost its data is refilled bucket-by-bucket from the peer
// replicas of every shard it hosts, reading at background priority so
// foreground queries on the donor nodes always win admission, paced by
// the same debt-based token bucket the disk rebuilder uses.
type RebuildConfig struct {
	// Map is the cluster's shard map.
	Map *ShardMap
	// Endpoints holds one base URL per member, indexed by stable member
	// ID; it must cover every member of the map.
	Endpoints []string
	// Client optionally overrides the HTTP client.
	Client *http.Client
	// Throttle paces donor reads in pages per second; nil or zero-rate
	// is unthrottled.
	Throttle *repair.Throttle
	// FetchTimeout bounds each bucket fetch from a donor (2s when 0).
	FetchTimeout time.Duration
	// FetchAttempts bounds how many rounds through the donor list one
	// bucket may take before the rebuild gives up (8 when 0). Donors
	// shed background reads whenever foreground load wants the disk, so
	// a patient retry loop — not a first-failure abort — is what lets a
	// rebuild make progress through sustained traffic (rounds run
	// donorBackoff apart). Exception: when
	// every donor fails hard (transport error or timeout — nobody home)
	// for noDonorRounds consecutive rounds, the fetch fails fast with
	// ErrNoDonor instead of waiting out the budget.
	FetchAttempts int
	// Obs optionally counts rebuild progress:
	// cluster.rebuild.buckets / .records / .retries.
	Obs *obs.Sink
}

// RebuildStats summarises one node rebuild.
type RebuildStats struct {
	// Shards, Buckets, Records recovered onto the target.
	Shards, Buckets, Records int
	// Pages is the paced I/O cost charged to the throttle.
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
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 2 * time.Second
	}
	if cfg.FetchAttempts <= 0 {
		cfg.FetchAttempts = 8
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	var mBuckets, mRecords, mRetries *obs.Counter
	if cfg.Obs != nil {
		r := cfg.Obs.Registry()
		mBuckets = r.Counter("cluster.rebuild.buckets")
		mRecords = r.Counter("cluster.rebuild.records")
		mRetries = r.Counter("cluster.rebuild.retries")
	}
	opts := fetchOpts{
		client:    cfg.Client,
		endpoints: cfg.Endpoints,
		timeout:   cfg.FetchTimeout,
		attempts:  cfg.FetchAttempts,
		priority:  repair.BackgroundPriority,
		epoch:     cfg.Map.Epoch(),
	}

	start := time.Now()
	if err := target.BeginRebuild(); err != nil {
		return st, err
	}
	capacity := target.cfg.PageCapacity
	if capacity <= 0 {
		capacity = 32
	}
	for _, sid := range cfg.Map.HostedShardsOfMember(target.ID()) {
		sh := cfg.Map.Shard(sid)
		donors := donorsFor(cfg.Map, sid, target.ID())
		if len(donors) == 0 {
			return st, fmt.Errorf("%w: shard %d has no replica beyond member %d",
				fault.ErrUnavailable, sid, target.ID())
		}
		var fetchErr error
		grid.EachRect(sh.Rect, func(c grid.Coord) bool {
			recs, retries, err := fetchBucket(ctx, donors, c, opts)
			st.Retries += retries
			mRetries.Add(uint64(retries))
			if err != nil {
				fetchErr = fmt.Errorf("cluster: rebuild shard %d cell %v: %w", sid, c, err)
				return false
			}
			if len(recs) > 0 {
				if err := target.RebuildInsert(recs); err != nil {
					fetchErr = err
					return false
				}
			}
			pages := max(1, (len(recs)+capacity-1)/capacity)
			st.Buckets++
			st.Records += len(recs)
			st.Pages += pages
			mBuckets.Inc()
			mRecords.Add(uint64(len(recs)))
			if err := cfg.Throttle.Take(ctx, float64(pages)); err != nil {
				fetchErr = err
				return false
			}
			return true
		})
		if fetchErr != nil {
			return st, fetchErr
		}
		st.Shards++
	}
	target.FinishRebuild()
	st.Elapsed = time.Since(start)
	return st, nil
}

// donorsFor lists a shard's replica-holding members other than the
// target.
func donorsFor(sm *ShardMap, shard, target int) []int {
	var donors []int
	for _, m := range sm.ShardMembers(shard) {
		if m != target {
			donors = append(donors, m)
		}
	}
	return donors
}

// fetchOpts parameterises one bucket-fetch loop.
type fetchOpts struct {
	client    *http.Client
	endpoints []string // base URL per member, indexed by stable member ID
	timeout   time.Duration
	attempts  int
	priority  int
	epoch     uint64
}

// fetchBucket reads one bucket from the first donor that answers,
// rotating through donors on failure and backing off between rounds —
// donors legitimately shed background reads under foreground load, so
// a failed round means "later", not "lost", until the attempt budget
// runs out. A round in which every donor fails hard (transport error or
// timeout — silence, not shedding) counts toward a short fuse: after
// noDonorRounds consecutive all-hard rounds the fetch fails fast with
// ErrNoDonor. Returns the records and how many fetches failed first.
func fetchBucket(ctx context.Context, donors []int, c grid.Coord, o fetchOpts) ([]datagen.Record, int, error) {
	var lastErr error
	retries := 0
	allHardRounds := 0
	for round := 0; round < o.attempts; round++ {
		if round > 0 {
			if err := donorBackoff.Wait(ctx, round); err != nil {
				return nil, retries, err
			}
		}
		allHard := true
		for i, donor := range donors {
			if round > 0 || i > 0 {
				retries++
			}
			if donor >= len(o.endpoints) || o.endpoints[donor] == "" {
				lastErr = fmt.Errorf("cluster: no endpoint for member %d", donor)
				continue
			}
			recs, err := fetchBucketFrom(ctx, o.endpoints[donor], c, o)
			if err == nil {
				return recs, retries, nil
			}
			if ctx.Err() != nil {
				return nil, retries, ctx.Err()
			}
			if !donorHardDown(err) {
				allHard = false
			}
			lastErr = err
		}
		if allHard {
			allHardRounds++
			if allHardRounds >= noDonorRounds {
				return nil, retries, fmt.Errorf("%w: %w: %d donors silent for %d rounds (last: %v)",
					ErrNoDonor, fault.ErrUnavailable, len(donors), allHardRounds, lastErr)
			}
		} else {
			allHardRounds = 0
		}
	}
	return nil, retries, fmt.Errorf("%w: %d donors failed %d rounds (last: %v)",
		fault.ErrUnavailable, len(donors), o.attempts, lastErr)
}

// donorHardDown classifies one donor fetch failure: hard means the
// donor never answered (transport failure, deadline) — the same errors
// that count against a node breaker — while a typed refusal (overload,
// draining, its own unavailability) means the donor is alive and worth
// retrying patiently.
func donorHardDown(err error) bool {
	return breakerCountable(err)
}

// fetchBucketFrom performs one GET /v1/bucket exchange at the loop's
// priority, stamped with its epoch.
func fetchBucketFrom(ctx context.Context, base string, c grid.Coord, o fetchOpts) ([]datagen.Record, error) {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = strconv.Itoa(v)
	}
	url := fmt.Sprintf("%s/v1/bucket?cell=%s&priority=%d&epoch=%d",
		strings.TrimRight(base, "/"), strings.Join(parts, ","), o.priority, o.epoch)
	var page recordPage
	err := exchange(ctx, o.client, o.timeout, url, nil, &page, recordPayloadLimit)
	return page.Records, err
}
