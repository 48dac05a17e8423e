package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decluster"
	"decluster/internal/exec"
)

// The traced pass measures every layer from outside: the benchmark's own
// spans are recorded around the calls into each layer, through hooks the
// stack already exposes (the router's HTTP client, the node's handler,
// the scheduler's read wrapper). Nothing inside the program is changed.
//
//	router.search → router.leg → node.handler → disk.read   cluster workloads
//	serve.search → disk.read                                 node-large
//	round → sweep.<family> | ingest.insert, ingest.eval      sweep, ingest
//
// A span's kind fixes its layer. At every instant of an op's root span
// the time is charged to the deepest layer that has a span open, so the
// per-layer self times add up to the root exactly even though legs,
// handlers and disk reads run in parallel: router self is the root
// minus the union of its legs, wire self is the union of the legs minus
// the union of the handlers inside them, and so on down.

type spanKind uint8

// Kinds in attribution order: when several are open at once, the later
// one in this list is the deeper layer and is charged.
const (
	kindRound  spanKind = iota // root of a sweep or ingest round
	kindRouter                 // root: Router.Search / Router.Aggregate
	kindServe                  // root: Scheduler.Search
	kindWrite                  // ingest.insert
	kindKernel                 // sweep.<family>, ingest.eval
	kindLeg                    // RoundTrip call → response body EOF
	kindNode                   // Node.Handler() ServeHTTP
	kindRead                   // one BucketReader.ReadBucket
	numKinds
)

var kindNames = [numKinds]string{"round", "router.search", "serve.search", "ingest.insert", "kernel", "router.leg", "node.handler", "disk.read"}

// shareMetric names the per-layer share each kind's self time is
// reported under; a round's own glue is not reported (it is the
// benchmark's loop, not a layer).
var shareMetric = [numKinds]string{
	kindRouter: "trace.share.router_pct", kindServe: "trace.share.serve_pct",
	kindWrite: "trace.share.write_pct", kindKernel: "trace.share.kernel_pct",
	kindLeg: "trace.share.wire_pct", kindNode: "trace.share.node_pct", kindRead: "trace.share.read_pct",
}

// span is one recorded interval, in ns since the tracer's epoch.
type span struct {
	ID     int32    `json:"id"`
	Parent int32    `json:"parent"`
	Kind   spanKind `json:"-"`
	Name   string   `json:"name"`
	Disk   int16    `json:"disk,omitempty"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// opFacts is what an op knows about itself beyond its spans.
type opFacts struct {
	hedges, hedgeWins, retries int
	// makespan is the busiest disk's bucket reads, model the cost
	// kernel's prediction for the same query, optimum ⌈|Q|/disks⌉.
	// makespan -1 asks for it to be counted from the op's disk.read
	// spans (per node handler and disk).
	makespan, model, optimum int
	// ratio is a ready-made RT/optimum (sweep, ingest).
	ratio           float64
	splits, retiles int
}

// traceAgg accumulates reduced ops.
type traceAgg struct {
	ops       int
	rootNs    int64
	selfNs    [numKinds]int64
	sumErr    float64
	legs      int
	reqBytes  int64
	respBytes int64
	reads     int
	hedges    int
	hedgeWins int
	retries   int
	ratioSum  float64
	ratioN    int
	mismatch  int
	splits    int
	retiles   int
}

// keptOp is one op whose spans go to the trace file whole.
type keptOp struct {
	Op    uint64  `json:"op"`
	LatMs float64 `json:"lat_ms"`
	Spans []span  `json:"spans"`
}

// keepOps is how many ops per traced window keep their full span list.
const keepOps = 8

const spanHeader = "X-Bench-Span"

type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	nextOp uint64
	live   map[uint64]*opTrace
	agg    traceAgg
	kept   []keptOp
	free   []*opTrace
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), live: make(map[uint64]*opTrace)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// take returns what was traced since the last take and starts afresh.
func (t *tracer) take() (traceAgg, []keptOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	agg, kept := t.agg, t.kept
	t.agg, t.kept = traceAgg{}, nil
	return agg, kept
}

// opTrace is one op's span buffer.
type opTrace struct {
	t  *tracer
	id uint64

	mu     sync.Mutex
	closed bool
	spans  []span
	legs   int
	req    int64
	resp   int64
}

type spanCtxKey struct{}

// spanCtx rides the caller's context: the op and the span that new
// children hang under.
type spanCtx struct {
	ot     *opTrace
	op     uint64
	parent int32
}

func spanFrom(ctx context.Context) *spanCtx {
	sc, _ := ctx.Value(spanCtxKey{}).(*spanCtx)
	return sc
}

// begin opens an op's root span and returns the context that carries
// it. On a nil or switched-off tracer it returns (ctx, nil), and every
// method of a nil *opTrace is a no-op.
func (t *tracer) begin(ctx context.Context, root spanKind) (context.Context, *opTrace) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	t.mu.Lock()
	var ot *opTrace
	if n := len(t.free); n > 0 {
		ot, t.free = t.free[n-1], t.free[:n-1]
	} else {
		ot = &opTrace{t: t}
	}
	t.nextOp++
	ot.id = t.nextOp
	t.live[ot.id] = ot
	t.mu.Unlock()
	ot.mu.Lock()
	ot.closed, ot.legs, ot.req, ot.resp = false, 0, 0, 0
	ot.spans = append(ot.spans[:0], span{Kind: root, Name: kindNames[root], Parent: -1, Start: t.now()})
	ot.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, &spanCtx{ot: ot, op: ot.id}), ot
}

// open records a span's start and returns its ID, or -1 when the op is
// over (a hedge loser's handler may still be running). An empty name
// selects the kind's own.
func (ot *opTrace) open(op uint64, kind spanKind, name string, parent int32, disk int) int32 {
	if name == "" {
		name = kindNames[kind]
	}
	start := ot.t.now()
	ot.mu.Lock()
	defer ot.mu.Unlock()
	if ot.closed || ot.id != op {
		return -1
	}
	id := int32(len(ot.spans))
	ot.spans = append(ot.spans, span{ID: id, Parent: parent, Kind: kind, Name: name, Disk: int16(disk), Start: start})
	return id
}

func (ot *opTrace) shut(op uint64, id int32) {
	if id < 0 {
		return
	}
	end := ot.t.now()
	ot.mu.Lock()
	if !ot.closed && ot.id == op {
		ot.spans[id].End = end
	}
	ot.mu.Unlock()
}

// start and end bracket a span on the op's own goroutine (sweep
// families, ingest phases).
func (ot *opTrace) start(kind spanKind, name string) int32 {
	if ot == nil {
		return -1
	}
	return ot.open(ot.id, kind, name, 0, 0)
}

func (ot *opTrace) end(id int32) {
	if ot != nil {
		ot.shut(ot.id, id)
	}
}

// finish closes the op: later span writes are dropped, the spans are
// reduced to per-layer self times and folded into the tracer's totals,
// and the buffer is recycled. lat is the op's latency as its caller
// timed it; facts may be nil for a failed op.
func (ot *opTrace) finish(lat time.Duration, facts *opFacts) {
	if ot == nil {
		return
	}
	t := ot.t
	end := t.now()
	ot.mu.Lock()
	ot.closed = true
	ot.spans[0].End = end
	spans := ot.spans
	legs, req, resp := ot.legs, ot.req, ot.resp
	ot.mu.Unlock()

	self := selfTimes(spans)
	var sum int64
	for _, s := range self {
		sum += s
	}
	reads, makespan := readStats(spans)

	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, ot.id)
	a := &t.agg
	a.ops++
	a.rootNs += spans[0].End - spans[0].Start
	for k, s := range self {
		a.selfNs[k] += s
	}
	if lat > 0 {
		d := float64(sum-int64(lat)) / float64(lat)
		if d < 0 {
			d = -d
		}
		a.sumErr += d
	}
	a.legs += legs
	a.reqBytes += req
	a.respBytes += resp
	a.reads += reads
	if facts != nil {
		a.hedges += facts.hedges
		a.hedgeWins += facts.hedgeWins
		a.retries += facts.retries
		a.splits += facts.splits
		a.retiles += facts.retiles
		if facts.makespan < 0 {
			facts.makespan = makespan
		}
		switch {
		case facts.ratio > 0:
			a.ratioSum += facts.ratio
			a.ratioN++
		case facts.optimum > 0 && facts.makespan > 0:
			a.ratioSum += float64(facts.makespan) / float64(facts.optimum)
			a.ratioN++
			if facts.makespan != facts.model {
				a.mismatch++
			}
		}
	}
	if len(t.kept) < keepOps {
		t.kept = append(t.kept, keptOp{Op: ot.id, LatMs: ms(lat), Spans: append([]span(nil), spans...)})
	}
	t.free = append(t.free, ot)
}

// selfTimes charges every instant of the root span (spans[0]) to the
// deepest kind open at that instant. Children are clipped to the root;
// a span never closed (a cancelled leg's handler) ends with the root.
func selfTimes(spans []span) [numKinds]int64 {
	type edge struct {
		at    int64
		kind  spanKind
		delta int8
	}
	root := spans[0]
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		start, end := s.Start, s.End
		if end == 0 || end > root.End {
			end = root.End
		}
		if start < root.Start {
			start = root.Start
		}
		if end <= start {
			continue
		}
		edges = append(edges, edge{start, s.Kind, +1}, edge{end, s.Kind, -1})
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	var self [numKinds]int64
	var open [numKinds]int
	prev := root.Start
	for _, e := range edges {
		if e.at > prev {
			for k := int(numKinds) - 1; k >= 0; k-- {
				if open[k] > 0 {
					self[k] += e.at - prev
					break
				}
			}
			prev = e.at
		}
		open[e.kind] += int(e.delta)
	}
	return self
}

// readStats counts an op's disk.read spans and the busiest (handler,
// disk) pair's share of them: the makespan the op observed.
func readStats(spans []span) (reads, makespan int) {
	var per map[int32]int
	for _, s := range spans {
		if s.Kind != kindRead {
			continue
		}
		if per == nil {
			per = make(map[int32]int)
		}
		reads++
		k := s.Parent<<8 | int32(s.Disk)
		per[k]++
		if per[k] > makespan {
			makespan = per[k]
		}
	}
	return reads, makespan
}

// --- hooks -----------------------------------------------------------

// wrapTransport records one router.leg span per HTTP attempt, from the
// RoundTrip call to the end of the response body, counts the bytes each
// way, and passes the op and leg to the node in a request header.
func (t *tracer) wrapTransport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		sc := spanFrom(req.Context())
		if sc == nil {
			return base.RoundTrip(req)
		}
		leg := sc.ot.open(sc.op, kindLeg, "", sc.parent, 0)
		req = req.Clone(req.Context()) // a RoundTripper must not modify its argument
		req.Header.Set(spanHeader, strconv.FormatUint(sc.op, 10)+"."+strconv.Itoa(int(leg)))
		sc.ot.mu.Lock()
		if !sc.ot.closed && sc.ot.id == sc.op {
			sc.ot.legs++
			sc.ot.req += req.ContentLength
		}
		sc.ot.mu.Unlock()
		resp, err := base.RoundTrip(req)
		if err != nil {
			sc.ot.shut(sc.op, leg)
			return nil, err
		}
		resp.Body = &legBody{ReadCloser: resp.Body, sc: sc, leg: leg}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// legBody ends its leg when the body is exhausted or closed, whichever
// comes first.
type legBody struct {
	io.ReadCloser
	sc   *spanCtx
	leg  int32
	n    int64
	done bool
}

func (b *legBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.sc.ot.shut(b.sc.op, b.leg)
	ot := b.sc.ot
	ot.mu.Lock()
	if !ot.closed && ot.id == b.sc.op {
		ot.resp += b.n
	}
	ot.mu.Unlock()
}

func (b *legBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *legBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// wrapHandler records one node.handler span per request that carries the
// span header and hands the span on to the node's bucket reads through
// the request context.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opStr, legStr, ok := strings.Cut(r.Header.Get(spanHeader), ".")
		op, err1 := strconv.ParseUint(opStr, 10, 64)
		leg, err2 := strconv.Atoi(legStr)
		if !ok || err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		ot := t.live[op]
		t.mu.Unlock()
		if ot == nil {
			next.ServeHTTP(w, r)
			return
		}
		id := ot.open(op, kindNode, "", int32(leg), 0)
		ctx := context.WithValue(r.Context(), spanCtxKey{}, &spanCtx{ot: ot, op: op, parent: id})
		next.ServeHTTP(w, r.WithContext(ctx))
		ot.shut(op, id)
	})
}

// wrapReader is the serve.WithReadWrapper hook: called once per query,
// it returns a reader that records one disk.read span per bucket read
// under whatever span the query's context carries. With tracing off it
// returns the reader it was given.
func (t *tracer) wrapReader(inner exec.BucketReader) exec.BucketReader {
	if !t.on.Load() {
		return inner
	}
	return &tracedReader{inner: inner}
}

var noSpan = &spanCtx{}

type tracedReader struct {
	inner exec.BucketReader
	// sc caches the query's span context: every read of one query
	// carries the same one, and the lookup walks a context chain.
	sc atomic.Pointer[spanCtx]
}

func (r *tracedReader) ReadBucket(ctx context.Context, disk, bucket int) ([]decluster.Record, error) {
	sc := r.sc.Load()
	if sc == nil {
		if sc = spanFrom(ctx); sc == nil {
			sc = noSpan
		}
		r.sc.Store(sc)
	}
	if sc == noSpan {
		return r.inner.ReadBucket(ctx, disk, bucket)
	}
	id := sc.ot.open(sc.op, kindRead, "", sc.parent, disk)
	recs, err := r.inner.ReadBucket(ctx, disk, bucket)
	sc.ot.shut(sc.op, id)
	return recs, err
}

// --- trace file ------------------------------------------------------

// traceFile is what a traced pass writes when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Ops      int                `json:"ops_traced"`
	Summary  map[string]float64 `json:"summary"`
	Kept     []keptOp           `json:"kept_ops"`
	Note     string             `json:"note"`
}

func writeTraceFile(path, workload string, seed int64, agg traceAgg, kept []keptOp, summary map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Workload: workload, Seed: seed, Ops: agg.ops, Summary: summary, Kept: kept,
		Note: fmt.Sprintf("every traced op is in the summary; the first %d keep their spans (ns since the tracer's epoch, parent -1 = root)", keepOps),
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
