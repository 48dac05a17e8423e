package decluster

import (
	"time"

	"decluster/internal/cost"
	"decluster/internal/exec"
	"decluster/internal/fault"
)

// FaultInjector injects deterministic, seeded faults — fail-stop disks,
// transient per-bucket read errors, and straggler latency multipliers —
// into the execution and evaluation stack.
type FaultInjector = fault.Injector

// FaultConfig describes an injection scenario: seed, fail-stop disks,
// transient read-error probability, and straggler multipliers.
type FaultConfig = fault.Config

// UnavailableError reports a query that cannot be answered correctly
// because buckets are unreachable on every replica. It lists the
// unreachable buckets and the failed disks.
type UnavailableError = fault.UnavailableError

// TransientError reports a retryable read failure of one bucket.
type TransientError = fault.TransientError

// DiskFailedError reports a read against a fail-stop disk.
type DiskFailedError = fault.DiskFailedError

// Sentinel errors for errors.Is classification of injected faults.
var (
	// ErrUnavailable matches queries whose buckets are unreachable on
	// every replica.
	ErrUnavailable = fault.ErrUnavailable
	// ErrTransientRead matches retryable per-read errors.
	ErrTransientRead = fault.ErrTransient
	// ErrDiskFailed matches reads against fail-stop disks.
	ErrDiskFailed = fault.ErrDiskFailed
)

// NewFaultInjector validates the configuration and builds an injector.
// Runs with equal seeds inject identical faults, so degraded-mode
// behaviour is reproducible.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) { return fault.New(cfg) }

// NodeInjector injects node-level faults — crash, network partition,
// slow node — observed by a cluster node's HTTP layer. It is the
// cluster-scale sibling of FaultInjector's disk-level faults.
type NodeInjector = fault.NodeInjector

// NodeState is a node's current fault status: up, crashed, or
// partitioned.
type NodeState = fault.NodeState

// NodeEvent is one timed state transition in a fault schedule.
type NodeEvent = fault.NodeEvent

// NodeSchedule is a deterministic timeline of node fault events,
// derived purely from a seed so any run can be replayed exactly.
type NodeSchedule = fault.NodeSchedule

// NewNodeInjector builds an injector with every node up.
func NewNodeInjector() *NodeInjector { return fault.NewNodeInjector() }

// NodeLossSchedule crashes one seeded-random node at ¼ of the duration
// and restarts it at ¾.
func NodeLossSchedule(seed int64, nodes int, duration time.Duration) NodeSchedule {
	return fault.NodeLossSchedule(seed, nodes, duration)
}

// RollingRestartSchedule restarts every node once, in seeded-random
// order, across the middle half of the duration.
func RollingRestartSchedule(seed int64, nodes int, duration time.Duration) NodeSchedule {
	return fault.RollingRestartSchedule(seed, nodes, duration)
}

// RetryPolicy bounds per-read retries of transient errors: total
// attempts plus capped exponential backoff.
type RetryPolicy = exec.RetryPolicy

// DefaultRetry is a retry policy suited to the injector's transient
// faults: up to 5 attempts with 1ms → 8ms exponential backoff.
func DefaultRetry() RetryPolicy { return exec.DefaultRetry() }

// BucketReader is the executor's pluggable I/O layer; implementations
// may return errors, which the executor retries (transient) or
// propagates.
type BucketReader = exec.BucketReader

// WithFaults attaches a fault injector to an executor: fail-stop disks
// affect routing (failover or typed unavailability) and reads may
// transiently error per the injector's probability.
func WithFaults(inj *FaultInjector) ExecOption { return exec.WithFaults(inj) }

// WithRetry sets the executor's transient-error retry policy.
func WithRetry(p RetryPolicy) ExecOption { return exec.WithRetry(p) }

// WithQueryDeadline bounds each query's wall-clock time; exceeding it
// returns context.DeadlineExceeded.
func WithQueryDeadline(d time.Duration) ExecOption { return exec.WithDeadline(d) }

// WithFailover attaches a replica scheme for degraded routing: buckets
// whose primary disk failed are served from their backup, with the
// query re-scheduled to minimize the busiest surviving disk.
func WithFailover(r *Replicated) ExecOption { return exec.WithFailover(r) }

// DegradedResponseTime returns the parallel response time of query r
// under method m with the listed disks failed: the busiest
// surviving-disk bucket count. When any bucket of the query lives only
// on a failed disk, a typed *UnavailableError is returned instead of a
// silently wrong number.
func DegradedResponseTime(m Method, r Rect, failed []int) (int, error) {
	return cost.DegradedResponseTime(m, r, failed)
}

// DegradedDiskLoads returns per-disk bucket loads for query r with the
// listed disks failed, plus the row-major buckets that became
// unreachable.
func DegradedDiskLoads(m Method, r Rect, failed []int) (loads []int, unreachable []int, err error) {
	return cost.DegradedDiskLoads(m, r, failed)
}
