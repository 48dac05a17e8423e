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
	target.mu.RLock()
	bucketOf := target.file.BucketOf // the node's partition, which a rebuild keeps
	target.mu.RUnlock()
	cp := newCopier(copier{
		g: cfg.Map.Grid(), client: cfg.Client, endpoints: cfg.Endpoints,
		timeout: cfg.FetchTimeout, attempts: cfg.FetchAttempts,
		priority: repair.BackgroundPriority, epoch: cfg.Map.Epoch(),
		capacity: target.cfg.PageCapacity, throttle: cfg.Throttle, bucketOf: bucketOf,
	}, cfg.Obs, "cluster.rebuild")

	start := time.Now()
	if err := target.BeginRebuild(); err != nil {
		return st, err
	}
	// A wiped node's hosted shards are one move each: same map on both
	// sides, nothing already held.
	err := cp.run(ctx, fill(cfg.Map, cfg.Map, target.ID(), true),
		func(_ int, _ grid.Coord, recs []datagen.Record) error { return target.RebuildInsert(recs) })
	st.Shards, st.Buckets, st.Records, st.Pages, st.Retries = cp.moves, cp.buckets, cp.records, cp.pages, cp.retries
	if err != nil {
		return st, fmt.Errorf("cluster: rebuild member %d: %w", target.ID(), err)
	}
	target.FinishRebuild()
	st.Elapsed = time.Since(start)
	return st, nil
}

// copier is the one per-bucket copy loop, behind both RebuildNode and
// Migrate's COPY phase: fetch a bucket from its move's donors, hand it
// to the caller's deliver, count it, charge the throttle.
type copier struct {
	g         *grid.Grid
	client    *http.Client  // &http.Client{} when nil
	endpoints []string      // base URL per member, indexed by stable member ID
	timeout   time.Duration // per exchange; 2s when 0
	attempts  int           // donor-rotation rounds per bucket; 8 when 0
	priority  int           // admission priority of donor reads
	epoch     uint64        // the epoch donor reads are stamped with
	capacity  int           // records per throttle page; 32 when 0
	throttle  *repair.Throttle
	// bucketOf, when set, is the destination's value → bucket mapping: a
	// donor whose page carries a record of another bucket has failed, and
	// the next donor is tried. Migrate leaves it nil — the nodes'
	// partition is theirs alone — and the destination refuses such a page.
	bucketOf func(values []float64) (int, error)

	mBuckets, mRecords, mRetries *obs.Counter

	// The running tally: moves completed, buckets and records copied,
	// pages charged to the throttle, donor fetches retried.
	moves, buckets, records, pages, retries int
}

// newCopier fills c's defaults and, given a sink, registers the
// <prefix>.buckets / .records / .retries counters.
func newCopier(c copier, sink *obs.Sink, prefix string) *copier {
	if c.timeout <= 0 {
		c.timeout = 2 * time.Second
	}
	if c.attempts <= 0 {
		c.attempts = 8
	}
	if c.capacity <= 0 {
		c.capacity = 32
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if sink != nil {
		r := sink.Registry()
		c.mBuckets = r.Counter(prefix + ".buckets")
		c.mRecords = r.Counter(prefix + ".records")
		c.mRetries = r.Counter(prefix + ".retries")
	}
	return &c
}

// run copies every bucket of every move, in order. A bucket counts once
// deliver has accepted it; the first error — a move nobody else holds
// (fault.ErrUnavailable: the data exists nowhere), a failed fetch, a
// refused delivery, a cancelled context — stops the run.
func (c *copier) run(ctx context.Context, moves []Move, deliver func(dest int, cell grid.Coord, recs []datagen.Record) error) error {
	for _, mv := range moves {
		if len(mv.Sources) == 0 {
			return fmt.Errorf("%w: %d buckets of member %d have no other holder",
				fault.ErrUnavailable, len(mv.Buckets), mv.Dest)
		}
		for _, b := range mv.Buckets {
			if err := ctx.Err(); err != nil {
				return err
			}
			cell := c.g.Delinearize(b, nil)
			recs, retries, err := c.fetchBucket(ctx, mv.Sources, cell)
			c.retries += retries
			c.mRetries.Add(uint64(retries))
			if err != nil {
				return fmt.Errorf("copy cell %v to member %d: %w", cell, mv.Dest, err)
			}
			if err := deliver(mv.Dest, cell, recs); err != nil {
				return err
			}
			pages := max(1, (len(recs)+c.capacity-1)/c.capacity)
			c.buckets++
			c.records += len(recs)
			c.pages += pages
			c.mBuckets.Inc()
			c.mRecords.Add(uint64(len(recs)))
			if err := c.throttle.Take(ctx, float64(pages)); err != nil {
				return err
			}
		}
		c.moves++
	}
	return nil
}

// fetchBucket reads one bucket from the first donor that answers,
// rotating through donors on failure and backing off between rounds —
// donors legitimately shed background reads under foreground load, so
// a failed round means "later", not "lost", until the attempt budget
// runs out. A round in which every donor fails hard (transport error or
// timeout — silence, not shedding) counts toward a short fuse: after
// noDonorRounds consecutive all-hard rounds the fetch fails fast with
// ErrNoDonor. Returns the records and how many fetches failed first.
func (c *copier) fetchBucket(ctx context.Context, donors []int, cell grid.Coord) ([]datagen.Record, int, error) {
	var lastErr error
	retries := 0
	allHardRounds := 0
	for round := 0; round < c.attempts; round++ {
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
			if donor >= len(c.endpoints) || c.endpoints[donor] == "" {
				lastErr = fmt.Errorf("cluster: no endpoint for member %d", donor)
				continue
			}
			recs, err := c.fetchBucketFrom(ctx, c.endpoints[donor], cell)
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
		fault.ErrUnavailable, len(donors), c.attempts, lastErr)
}

// donorHardDown classifies one donor fetch failure: hard means the
// donor never answered (transport failure, deadline) — the same errors
// that count against a node breaker — while a typed refusal (overload,
// draining, its own unavailability) means the donor is alive and worth
// retrying patiently.
func donorHardDown(err error) bool {
	return breakerCountable(err)
}

// fetchBucketFrom performs one GET /v1/bucket exchange at the copier's
// priority, stamped with its epoch.
func (c *copier) fetchBucketFrom(ctx context.Context, base string, cell grid.Coord) ([]datagen.Record, error) {
	parts := make([]string, len(cell))
	for i, v := range cell {
		parts[i] = strconv.Itoa(v)
	}
	url := fmt.Sprintf("%s/v1/bucket?cell=%s&priority=%d&epoch=%d",
		strings.TrimRight(base, "/"), strings.Join(parts, ","), c.priority, c.epoch)
	var page recordPage
	if err := exchange(ctx, c.client, c.timeout, url, nil, &page, recordPayloadLimit); err != nil {
		return nil, err
	}
	if c.bucketOf != nil {
		if err := inBucket(page.Records, c.g.Linearize(cell), c.bucketOf); err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", url, err)
		}
	}
	return page.Records, nil
}
