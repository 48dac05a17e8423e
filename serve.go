package decluster

import (
	"context"
	"time"

	"decluster/internal/serve"
)

// Scheduler is the overload-safe multi-query serving layer: admission
// control with a bounded priority queue, per-disk circuit breakers fed
// by an EWMA health tracker, hedged reads against live replicas, and
// graceful drain. It wraps the parallel Executor, so everything the
// executor does (fault injection, retry, failover routing) composes
// with the serving policies.
type Scheduler = serve.Scheduler

// ServeOption configures a Scheduler.
type ServeOption = serve.Option

// ServeQuery is one unit of admission: a cell rectangle plus the
// priority that orders queueing and decides eviction.
type ServeQuery = serve.Query

// ServeStats is a snapshot of a scheduler's lifetime counters.
type ServeStats = serve.Stats

// ServeSnapshot is the final report Close returns: counters plus
// per-disk health at drain time.
type ServeSnapshot = serve.Snapshot

// AdmissionConfig bounds concurrency and queueing.
type AdmissionConfig = serve.AdmissionConfig

// BreakerConfig tunes the per-disk health tracker and circuit breakers.
type BreakerConfig = serve.BreakerConfig

// BreakerState is one of the circuit-breaker states.
type BreakerState = serve.BreakerState

// Circuit-breaker states: closed serves normally, open is routed
// around, half-open is probing its way back.
const (
	BreakerClosed   = serve.BreakerClosed
	BreakerOpen     = serve.BreakerOpen
	BreakerHalfOpen = serve.BreakerHalfOpen
)

// HedgeConfig tunes speculative backup reads: After is the delay, run
// from the read's own stamp, after which a still-unanswered read races
// its other replica, if the hedge gate, asked then, agrees. Only a read
// that can wait is raced: one through a reader that declares its reads
// never wait (the default grid-file reader, StoreReader, read-repair
// over either, or any reader with a NeverWaits method that returns
// true) is an in-memory page
// access that no backup on the same CPUs can beat, so it is not raced
// and only fails over when it fails.
type HedgeConfig = serve.HedgeConfig

// DiskHealth is one disk's health snapshot.
type DiskHealth = serve.DiskHealth

// OverloadedError reports one shed query with the load that shed it.
type OverloadedError = serve.OverloadedError

// Sentinel errors for errors.Is classification of serving outcomes.
var (
	// ErrOverloaded matches queries shed by admission control.
	ErrOverloaded = serve.ErrOverloaded
	// ErrSchedulerClosed matches queries submitted to (or queued in) a
	// draining scheduler.
	ErrSchedulerClosed = serve.ErrClosed
)

// Serve builds an overload-safe scheduler over the grid file.
func Serve(f *GridFile, opts ...ServeOption) (*Scheduler, error) {
	return serve.New(f, opts...)
}

// WithAdmission sets the admission-control bounds and drop policy.
func WithAdmission(a AdmissionConfig) ServeOption { return serve.WithAdmission(a) }

// WithBreaker tunes the per-disk health tracker and circuit breakers.
func WithBreaker(b BreakerConfig) ServeOption { return serve.WithBreaker(b) }

// WithHedging enables speculative backup reads after h.After; requires
// WithServeFailover for the backup replicas.
func WithHedging(h HedgeConfig) ServeOption { return serve.WithHedging(h) }

// WithDrainTimeout bounds how long Close waits for in-flight queries
// (default 5s).
func WithDrainTimeout(d time.Duration) ServeOption { return serve.WithDrainTimeout(d) }

// WithServeFaults attaches a fault injector to the scheduler's
// executor; the scheduler also consults it to skip hedging onto
// fail-stop disks.
func WithServeFaults(inj *FaultInjector) ServeOption { return serve.WithFaults(inj) }

// WithServeFailover attaches the replica scheme used for degraded
// routing, breaker avoidance, and hedge targets.
func WithServeFailover(r *Replicated) ServeOption { return serve.WithFailover(r) }

// WithServeRetry sets the transient-error retry policy of the
// scheduler's executor.
func WithServeRetry(p RetryPolicy) ServeOption { return serve.WithRetry(p) }

// WithServeReader replaces the scheduler's base grid-file reader.
func WithServeReader(r BucketReader) ServeOption { return serve.WithBucketReader(r) }

// WithSimulatedLatency inserts a simulated per-read service time of d ×
// the injector's straggler multiplier, giving soak runs over the
// in-memory grid file a realistic latency surface.
func WithSimulatedLatency(d time.Duration) ServeOption { return serve.WithBaseLatency(d) }

// ServeRangeSearch is a convenience wrapper: build a scheduler with
// default policies, run one search, and drain.
func ServeRangeSearch(ctx context.Context, f *GridFile, r Rect) (*ExecResult, error) {
	s, err := serve.New(f)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Search(ctx, r)
}
