package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"decluster/internal/stats"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("nil histogram has state")
	}
	var cf *CounterFamily
	cf.At(0).Inc()
	if cf.Len() != 0 || cf.Sum() != 0 {
		t.Error("nil counter family has state")
	}
	var hf *HistogramFamily
	hf.At(0).Observe(time.Second)
	if hf.Len() != 0 || hf.Count() != 0 {
		t.Error("nil histogram family has state")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil ||
		r.CounterFamily("x", "d", 2) != nil || r.HistogramFamily("x", "d", 2) != nil {
		t.Error("nil registry created a metric")
	}
	if err := r.WriteTable(nil); err != nil {
		t.Error("nil registry WriteTable errored")
	}
	if err := r.WriteCSV(nil); err != nil {
		t.Error("nil registry WriteCSV errored")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewRegistry().Counter("c")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("Value = %d, want %d", c.Value(), workers*per)
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("Value = %d, want 7", g.Value())
	}
}

func TestHistogramExactAggregates(t *testing.T) {
	h := NewRegistry().Histogram("h")
	obsd := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	for _, d := range obsd {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Sum() != 6*time.Millisecond {
		t.Errorf("Sum = %v", h.Sum())
	}
	if h.Min() != time.Millisecond || h.Max() != 3*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestHistogramPercentileConventions(t *testing.T) {
	h := NewRegistry().Histogram("h")
	if h.Percentile(50) != 0 {
		t.Error("empty percentile != 0")
	}
	h.Observe(5 * time.Millisecond)
	for _, p := range []float64{-10, 0, 1, 50, 99, 100, 500} {
		if got := h.Percentile(p); got != 5*time.Millisecond {
			t.Errorf("single-sample Percentile(%v) = %v, want 5ms", p, got)
		}
	}
	if h.Percentile(math.NaN()) != 0 {
		t.Error("NaN percentile != 0")
	}
	h.Observe(20 * time.Millisecond)
	if got := h.Percentile(0); got != 5*time.Millisecond {
		t.Errorf("p0 = %v, want Min", got)
	}
	if got := h.Percentile(100); got != 20*time.Millisecond {
		t.Errorf("p100 = %v, want Max", got)
	}
	if p50 := h.Percentile(50); p50 < 5*time.Millisecond || p50 > 20*time.Millisecond {
		t.Errorf("p50 = %v outside [Min, Max]", p50)
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	h := NewRegistry().Histogram("h")
	for i := 1; i <= 200; i++ {
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
	}
	prev := time.Duration(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		got := h.Percentile(p)
		if got < prev {
			t.Fatalf("Percentile(%v) = %v < Percentile(%v) = %v", p, got, p-2.5, prev)
		}
		prev = got
	}
}

// TestHistogramAlignsWithStats drives the same sample through
// obs.Histogram and stats.Percentile: the bucketed estimate must agree
// with the exact order statistic to within the covering bucket's width
// (and exactly at the p ≤ 0 / p ≥ 100 / single-sample edges, already
// pinned above). This is the contract the package doc promises.
func TestHistogramAlignsWithStats(t *testing.T) {
	h := NewRegistry().Histogram("h")
	var xs []float64
	for i := 0; i < 500; i++ {
		d := time.Duration((i*i)%9973) * 23 * time.Microsecond
		h.Observe(d)
		xs = append(xs, float64(d))
	}
	for _, p := range []float64{0, 5, 25, 50, 75, 90, 95, 99, 100} {
		exact := time.Duration(stats.Percentile(xs, p))
		got := h.Percentile(p)
		lo, hi := bucketAround(h, exact)
		if got < lo || got > hi {
			t.Errorf("p%v: histogram %v outside bucket [%v, %v] covering exact %v", p, got, lo, hi, exact)
		}
	}
}

// bucketAround returns the histogram bucket range containing v,
// tightened by the observed extrema — the estimate's error bound.
func bucketAround(h *Histogram, v time.Duration) (time.Duration, time.Duration) {
	b := 0
	for b < len(h.bounds) && h.bounds[b] < int64(v) {
		b++
	}
	lo, hi := h.bucketEdges(b)
	return time.Duration(lo), time.Duration(hi)
}

func TestCounterFamily(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("fam", "disk", 4)
	if f.Len() != 4 {
		t.Fatalf("Len = %d", f.Len())
	}
	f.At(0).Add(2)
	f.At(3).Inc()
	f.At(-1).Inc() // out of range: no-op
	f.At(4).Inc()
	if f.Sum() != 3 {
		t.Errorf("Sum = %d, want 3", f.Sum())
	}
	if r.CounterFamily("fam", "ignored", 2) != f || f.Len() != 4 {
		t.Error("get-or-create returned a different family or shrank it")
	}

	// Growing extends in place: the family, and every handle resolved
	// before the growth, stay live.
	early := f.At(3)
	if g := r.CounterFamily("fam", "ignored", 6); g != f || f.Len() != 6 {
		t.Fatalf("grown family: same %v, Len %d; want the same family, 6 members", g == f, f.Len())
	}
	early.Inc()
	f.At(5).Add(7)
	if f.At(3).Value() != 2 || f.Sum() != 11 {
		t.Errorf("after growth: member 3 = %d, Sum = %d; want 2, 11", f.At(3).Value(), f.Sum())
	}
	var buf bytes.Buffer
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "disk0=2 disk1=0 disk2=0 disk3=2 disk4=0 disk5=7 (sum=11)"; !strings.Contains(buf.String(), want) {
		t.Errorf("dump missing %q:\n%s", want, buf.String())
	}
}

func TestHistogramFamily(t *testing.T) {
	r := NewRegistry()
	f := r.HistogramFamily("hfam", "disk", 2)
	early := f.At(1)
	early.Observe(time.Millisecond)
	f.At(9).Observe(time.Millisecond) // out of range: no-op
	if f.Count() != 1 || f.Len() != 2 {
		t.Errorf("Count/Len = %d/%d", f.Count(), f.Len())
	}
	if g := r.HistogramFamily("hfam", "disk", 3); g != f || f.Len() != 3 {
		t.Fatalf("grown family: same %v, Len %d; want the same family, 3 members", g == f, f.Len())
	}
	early.Observe(2 * time.Millisecond)
	f.At(2).Observe(time.Millisecond)
	if f.At(1).Count() != 2 || f.Count() != 3 {
		t.Errorf("after growth: member 1 count %d, family count %d; want 2, 3", f.At(1).Count(), f.Count())
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "histogram_family,hfam,disk2,count,1\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("dump missing %q:\n%s", want, buf.String())
	}
}

// TestFamilyGrowthRace grows families while goroutines hammer the
// members they resolved through At: under -race this is the test that
// growth only publishes, never moves, a member — and no increment made
// before, during or after a growth is lost.
func TestFamilyGrowthRace(t *testing.T) {
	r := NewRegistry()
	const workers, per, width = 4, 2000, 64
	cf := r.CounterFamily("c", "node", 1)
	hf := r.HistogramFamily("h", "node", 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				cf.At(0).Inc()
				hf.At(0).Observe(time.Microsecond)
				cf.At(1 + i%(width-1)).Inc() // nil until grown that far: a no-op
				_ = hf.Len()
			}
		}()
	}
	for n := 2; n <= width; n++ {
		r.CounterFamily("c", "node", n)
		r.HistogramFamily("h", "node", n)
	}
	wg.Wait()
	if cf.Len() != width || hf.Len() != width {
		t.Fatalf("Len = %d/%d, want %d", cf.Len(), hf.Len(), width)
	}
	if got := cf.At(0).Value(); got != workers*per {
		t.Errorf("member 0 = %d, want %d: increments were lost across a growth", got, workers*per)
	}
	if rest := cf.Sum() - cf.At(0).Value(); rest > workers*per {
		t.Errorf("members 1.. hold %d, more than the %d increments aimed at them", rest, workers*per)
	}
	if got := hf.At(0).Count(); got != workers*per {
		t.Errorf("histogram member 0 count = %d, want %d", got, workers*per)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("counter handle not stable")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("gauge handle not stable")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Error("histogram handle not stable")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Error("distinct names share a counter")
	}
}

func TestDefaultLatencyBounds(t *testing.T) {
	bs := DefaultLatencyBounds()
	if len(bs) == 0 || bs[0] != time.Microsecond || bs[len(bs)-1] != 10*time.Second {
		t.Fatalf("bounds = %v", bs)
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, bs)
		}
	}
}
