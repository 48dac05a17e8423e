package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency histogram over int64 nanosecond
// observations. Bucket b counts observations v with bounds[b-1] < v ≤
// bounds[b]; an implicit overflow bucket catches everything above the
// last bound. Count, sum, min, and max are tracked exactly; quantiles
// are estimated by linear interpolation inside the covering bucket
// using the same rank convention as stats.Percentile, and are clamped
// into [Min, Max] so the edge cases (empty → 0, p ≤ 0 → min, p ≥ 100 →
// max, single sample → that sample) agree with package stats exactly.
type Histogram struct {
	bounds []int64 // ascending upper bounds, ns
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// DefaultLatencyBounds is a 1-2-5 exponential ladder from 1µs to 10s —
// wide enough for simulated disk reads and whole-query latencies alike.
func DefaultLatencyBounds() []time.Duration {
	var out []time.Duration
	for decade := time.Microsecond; decade <= time.Second; decade *= 10 {
		out = append(out, decade, 2*decade, 5*decade)
	}
	return append(out, 10*time.Second)
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	h := &Histogram{
		bounds: make([]int64, len(bounds)),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	for i, b := range bounds {
		h.bounds[i] = int64(b)
	}
	sort.Slice(h.bounds, func(i, j int) bool { return h.bounds[i] < h.bounds[j] })
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	// Binary search for the first bound ≥ v; the overflow bucket is
	// len(bounds).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Percentile estimates the p-th percentile (0 ≤ p ≤ 100). Conventions
// match stats.Percentile: an empty histogram returns 0, p is clamped
// into [0, 100] (p ≤ 0 → Min, p ≥ 100 → Max), and a NaN p returns 0.
// The estimate interpolates linearly inside the bucket covering the
// rank p/100·(n−1) and is clamped into [Min, Max], so it can differ
// from the exact sample percentile by at most the covering bucket's
// width.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 || math.IsNaN(p) {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 100 {
		return h.Max()
	}
	count := func(b int) uint64 { return h.counts[b].Load() }
	if v, ok := interpolate(len(h.counts), count, h.bucketEdges, p/100*float64(n-1)); ok {
		return h.clamp(v)
	}
	return h.Max()
}

// interpolate is the bucket-interpolation loop behind both Percentile
// methods: it walks the nb bucket counts to the one covering rank and
// interpolates linearly by position between that bucket's edges. It
// reports false when the counts run out first (observations racing
// the read).
func interpolate(nb int, count func(b int) uint64, edges func(b int) (lo, hi int64), rank float64) (time.Duration, bool) {
	var cum uint64
	for b := 0; b < nb; b++ {
		c := count(b)
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			frac := (rank - float64(cum)) / float64(c)
			lo, hi := edges(b)
			return time.Duration(float64(lo) + frac*float64(hi-lo)), true
		}
		cum += c
	}
	return 0, false
}

// bucketEdges returns bucket b's value range, tightened by the observed
// min/max so sparse histograms interpolate inside real data.
func (h *Histogram) bucketEdges(b int) (lo, hi int64) {
	if b == 0 {
		lo = h.min.Load()
	} else {
		lo = h.bounds[b-1]
	}
	if b == len(h.bounds) {
		hi = h.max.Load()
	} else {
		hi = h.bounds[b]
	}
	if mn := h.min.Load(); lo < mn {
		lo = mn
	}
	if mx := h.max.Load(); hi > mx {
		hi = mx
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func (h *Histogram) clamp(d time.Duration) time.Duration {
	if mn := time.Duration(h.min.Load()); d < mn {
		return mn
	}
	if mx := time.Duration(h.max.Load()); d > mx {
		return mx
	}
	return d
}

// HistogramSnapshot is a point-in-time copy of a histogram's bucket
// counts. Subtracting two snapshots of the same histogram yields the
// distribution of just the observations made between them — the
// sliding-window view a controller wants, built on top of cumulative
// atomics without any per-observation cost.
type HistogramSnapshot struct {
	// Bounds aliases the histogram's ascending bucket bounds (ns);
	// treat as read-only.
	Bounds []int64
	// Counts holds one count per bucket plus the overflow bucket.
	Counts []uint64
	// Count is the total number of observations in the snapshot.
	Count uint64
	// Sum is the total of all observations, ns.
	Sum int64
}

// Snapshot copies the histogram's current bucket counts. Buckets are
// read individually (not under a lock), so a snapshot taken during
// concurrent observation can be off by the handful of observations in
// flight — fine for windowed control decisions.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Sub returns the bucket-wise difference s − prev, clamped at zero, so
// two snapshots of the same histogram bracket a window of observations.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Bounds: s.Bounds, Counts: make([]uint64, len(s.Counts))}
	for i, c := range s.Counts {
		var p uint64
		if i < len(prev.Counts) {
			p = prev.Counts[i]
		}
		if c > p {
			out.Counts[i] = c - p
			out.Count += c - p
		}
	}
	if s.Sum > prev.Sum {
		out.Sum = s.Sum - prev.Sum
	}
	return out
}

// Percentile estimates the p-th percentile of the snapshot by linear
// interpolation inside the covering bucket. Unlike Histogram.Percentile
// it cannot tighten bucket edges with observed min/max (a window has
// neither), so the estimate is coarser by up to one bucket width; an
// empty snapshot returns 0.
func (s HistogramSnapshot) Percentile(p float64) time.Duration {
	if s.Count == 0 || math.IsNaN(p) {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	count := func(b int) uint64 { return s.Counts[b] }
	if v, ok := interpolate(len(s.Counts), count, s.bucketEdges, p/100*float64(s.Count-1)); ok {
		return v
	}
	_, hi := s.bucketEdges(len(s.Bounds))
	return time.Duration(hi)
}

// bucketEdges returns bucket b's value range from the bounds alone; the
// overflow bucket extends one last-bound width.
func (s HistogramSnapshot) bucketEdges(b int) (lo, hi int64) {
	if b > 0 {
		lo = s.Bounds[b-1]
	}
	if b < len(s.Bounds) {
		hi = s.Bounds[b]
	} else if len(s.Bounds) > 0 {
		hi = 2 * s.Bounds[len(s.Bounds)-1]
	}
	return lo, hi
}

// family is the one implementation behind CounterFamily, GaugeFamily
// and HistogramFamily: metrics labeled by a small integer — one per
// disk or per cluster node, in this codebase — that grow in place. A
// member is allocated once and never moves, so a handle resolved before
// a growth keeps counting into the same member; growth publishes a
// longer copy of the pointer list, so a lookup is one atomic load.
type family[M any] struct {
	label   string
	newM    func() *M
	members atomic.Pointer[[]*M]
}

// list returns the current members (none for a nil family).
func (f *family[M]) list() []*M {
	if f == nil {
		return nil
	}
	if ms := f.members.Load(); ms != nil {
		return *ms
	}
	return nil
}

func (f *family[M]) at(i int) *M {
	ms := f.list()
	if i < 0 || i >= len(ms) {
		return nil
	}
	return ms[i]
}

// grow widens the family to at least n members. Callers hold the
// registry lock, which serialises growers (and dumps) against each
// other; At never takes it.
func (f *family[M]) grow(n int) {
	ms := f.list()
	if n <= len(ms) {
		return
	}
	grown := make([]*M, n)
	copy(grown, ms)
	for i := len(ms); i < n; i++ {
		grown[i] = f.newM()
	}
	f.members.Store(&grown)
}

// CounterFamily is a family of counters labeled by a small integer.
type CounterFamily family[Counter]

// At returns the counter of label value i (nil when out of range or
// the family is nil, keeping call sites branch-free).
func (f *CounterFamily) At(i int) *Counter { return (*family[Counter])(f).at(i) }

// Len returns the family size.
func (f *CounterFamily) Len() int { return len((*family[Counter])(f).list()) }

// Sum totals the family's counters.
func (f *CounterFamily) Sum() uint64 {
	var s uint64
	for _, c := range (*family[Counter])(f).list() {
		s += c.Value()
	}
	return s
}

// GaugeFamily is a family of gauges labeled by a small integer.
type GaugeFamily family[Gauge]

// At returns the gauge of label value i (nil when out of range or the
// family is nil, keeping call sites branch-free).
func (f *GaugeFamily) At(i int) *Gauge { return (*family[Gauge])(f).at(i) }

// Len returns the family size.
func (f *GaugeFamily) Len() int { return len((*family[Gauge])(f).list()) }

// Sum totals the family's gauges.
func (f *GaugeFamily) Sum() int64 {
	var s int64
	for _, g := range (*family[Gauge])(f).list() {
		s += g.Value()
	}
	return s
}

// HistogramFamily is a family of histograms labeled by a small integer.
type HistogramFamily family[Histogram]

// At returns the histogram of label value i (nil when out of range or
// the family is nil).
func (f *HistogramFamily) At(i int) *Histogram { return (*family[Histogram])(f).at(i) }

// Len returns the family size.
func (f *HistogramFamily) Len() int { return len((*family[Histogram])(f).list()) }

// Count totals the family's observation counts.
func (f *HistogramFamily) Count() uint64 {
	var s uint64
	for _, h := range (*family[Histogram])(f).list() {
		s += h.Count()
	}
	return s
}

// Registry holds named metrics. Get-or-create accessors are safe for
// concurrent use; instrumented code resolves handles once at
// construction and then touches only the atomics.
type Registry struct {
	mu    sync.Mutex
	cs    map[string]*Counter
	gs    map[string]*Gauge
	hs    map[string]*Histogram
	cfams map[string]*family[Counter]
	gfams map[string]*family[Gauge]
	hfams map[string]*family[Histogram]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		cs:    make(map[string]*Counter),
		gs:    make(map[string]*Gauge),
		hs:    make(map[string]*Histogram),
		cfams: make(map[string]*family[Counter]),
		gfams: make(map[string]*family[Gauge]),
		hfams: make(map[string]*family[Histogram]),
	}
}

// lookup is the registry's one get-or-create: the metric named name in
// m, made by mk on first use.
func lookup[M any](r *Registry, m map[string]*M, name string, mk func() *M) *M {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = mk()
		m[name] = v
	}
	return v
}

// lookupFamily resolves the named family — created labeled label, its
// members made by newM — and grows it to at least n members.
func lookupFamily[M any](r *Registry, m map[string]*family[M], name, label string, n int, newM func() *M) *family[M] {
	f := lookup(r, m, name, func() *family[M] { return &family[M]{label: label, newM: newM} })
	r.mu.Lock()
	defer r.mu.Unlock()
	f.grow(n)
	return f
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (a valid no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.cs, name, newZero[Counter])
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gs, name, newZero[Gauge])
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (DefaultLatencyBounds when bounds is
// empty). Later calls ignore bounds.
func (r *Registry) Histogram(name string, bounds ...time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, r.hs, name, func() *Histogram { return newHistogram(bounds) })
}

// CounterFamily returns the named counter family labeled label+index,
// creating it on first use and growing it in place to at least n
// members. Later calls ignore label.
func (r *Registry) CounterFamily(name, label string, n int) *CounterFamily {
	if r == nil {
		return nil
	}
	return (*CounterFamily)(lookupFamily(r, r.cfams, name, label, n, newZero[Counter]))
}

// GaugeFamily returns the named gauge family labeled label+index,
// creating it on first use and growing it in place to at least n
// members. Later calls ignore label.
func (r *Registry) GaugeFamily(name, label string, n int) *GaugeFamily {
	if r == nil {
		return nil
	}
	return (*GaugeFamily)(lookupFamily(r, r.gfams, name, label, n, newZero[Gauge]))
}

// HistogramFamily returns the named histogram family labeled
// label+index, creating it on first use and growing it in place to at
// least n members. Every member gets the bounds of the creating call.
func (r *Registry) HistogramFamily(name, label string, n int, bounds ...time.Duration) *HistogramFamily {
	if r == nil {
		return nil
	}
	newM := func() *Histogram { return newHistogram(bounds) }
	return (*HistogramFamily)(lookupFamily(r, r.hfams, name, label, n, newM))
}

func newZero[M any]() *M { return new(M) }

// sortedKeys returns the sorted metric names of one kind, for
// deterministic dumps.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
