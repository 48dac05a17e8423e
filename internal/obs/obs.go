// Package obs is the observability substrate of the serving stack: a
// dependency-free metrics registry plus a per-query lifecycle trace
// recorder. Every future performance claim benchmarks against the
// numbers this package collects, so the package is built to be
// *testable itself*: counters are exact (atomic, never sampled),
// histogram percentile conventions match package stats, and the
// conservation differential test in package serve asserts that the
// counters are conserved end to end under chaos.
//
// Three pieces:
//
//   - Registry: named atomic counters, gauges, and fixed-bucket latency
//     histograms (p50/p95/p99/max), plus per-disk and per-node labeled
//     families that grow in place, so no caller has to size them.
//     Metric handles are resolved once at construction; the hot path
//     touches only the atomics.
//
//   - Trace: a per-query span tree (admit → queued → exec → per-disk
//     reads → read attempts → hedge legs → read-repair) with monotonic
//     timestamps relative to the trace epoch. A TraceBuffer keeps the
//     slowest N finished traces for end-of-run rendering.
//
//   - Sink: the nil-safe handle the serving layers accept. A nil *Sink
//     disables everything: instrumented code pre-resolves its metric
//     handles into a struct that is nil when the sink is nil, so the
//     disabled hot path pays exactly one pointer comparison per site.
//
// The package imports only the standard library and nothing from this
// module, so every layer (fault, exec, serve, repair, experiments, the
// CLI) can depend on it without cycles.
package obs

import (
	"sync"
	"sync/atomic"
)

// Sink receives metrics and (optionally) traces. The zero of *Sink —
// nil — is a valid, fully disabled sink: every method no-ops or returns
// nil, so instrumented code can hold one unconditionally.
type Sink struct {
	reg *Registry

	mu      sync.Mutex
	tracing atomic.Bool
	traces  *TraceBuffer
	nextID  atomic.Uint64
}

// NewSink returns a sink with a fresh registry and tracing disabled.
func NewSink() *Sink {
	return &Sink{reg: NewRegistry()}
}

// Registry returns the sink's metric registry (nil for a nil sink).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// EnableTracing switches per-query tracing on, keeping the slowest
// keep traces (minimum 1). Safe to call at any time; queries that
// started before the switch are unaffected.
func (s *Sink) EnableTracing(keep int) {
	if s == nil {
		return
	}
	if keep < 1 {
		keep = 1
	}
	s.mu.Lock()
	s.traces = NewTraceBuffer(keep)
	s.mu.Unlock()
	s.tracing.Store(true)
}

// Tracing reports whether per-query traces should be recorded. It is a
// single atomic load (false for a nil sink), cheap enough for per-query
// checks.
func (s *Sink) Tracing() bool {
	return s != nil && s.tracing.Load()
}

// StartTrace begins a trace when tracing is enabled, returning nil
// otherwise. All *Trace and *Span methods are nil-safe, so callers may
// use the result unconditionally.
func (s *Sink) StartTrace(name string) *Trace {
	if !s.Tracing() {
		return nil
	}
	return newTrace(s.nextID.Add(1), name)
}

// FinishTrace finalizes t and offers it to the slowest-N buffer. A nil
// sink or nil trace no-ops.
func (s *Sink) FinishTrace(t *Trace) {
	if s == nil || t == nil {
		return
	}
	t.Finish()
	s.mu.Lock()
	buf := s.traces
	s.mu.Unlock()
	if buf != nil {
		buf.Offer(t)
	}
}

// SlowestTraces returns the retained traces, slowest first (nil for a
// nil or non-tracing sink).
func (s *Sink) SlowestTraces() []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	buf := s.traces
	s.mu.Unlock()
	if buf == nil {
		return nil
	}
	return buf.Slowest()
}
