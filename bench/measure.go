package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// instance is one built workload: a system under test plus the inputs
// and expected outputs the seed generated.
type instance interface {
	// verify runs the workload's fixed verification set against its
	// oracle; any mismatch fails the whole run.
	verify(ctx context.Context) error
	// op runs timed operation i on behalf of one client and checks its
	// output. It returns the latency of the call into the system alone
	// (the check is outside it) and whether the output was correct.
	op(ctx context.Context, client, i int) (time.Duration, bool)
	// close stops everything the instance started and waits for it.
	close()
}

// workload describes how one named workload is built and driven.
type workload struct {
	name string
	// clients is the number of closed-loop issuers (never above nproc:
	// the callers are blocking library calls).
	clients int
	// rounds marks a workload whose operation is one long round: each
	// window is a single op instead of a fixed duration.
	rounds bool
	// warmup is how many ops set-up runs before it counts as ready.
	warmup int
	// build generates inputs from the seed and constructs the system.
	// hooks is nil on an untraced run.
	build func(seed int64, hooks *tracer) (instance, error)
}

// window is one measured slice of a run.
type window struct {
	Ops     int     `json:"ops"`
	Failed  int     `json:"failed"`
	OpsPerS float64 `json:"ops_per_s"`
	// OpsPerKref is OpsPerS over the reference's ops per second right
	// after the window, times 1000.
	OpsPerKref float64 `json:"ops_per_kref"`
	P50Ms      float64 `json:"p50_ms"`
	RefMs      float64 `json:"ref_ms"`
	CPUMs      float64 `json:"cpu_ms"`
	Allocs     uint64  `json:"allocs"`
	AllocKB    float64 `json:"alloc_kb"`
	GCPauseMs  float64 `json:"gc_pause_ms"`
	lat        []int64 // per-op latency, ns, unsorted
}

// procSnap is a point reading of the process counters a window diffs.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	pause   uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		pause:   ms.PauseTotalNs,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// refRecord is the reference op's payload: the shape of a wire record,
// owned by the benchmark so that no change to the repository moves it.
type refRecord struct {
	ID     int       `json:"id"`
	Values []float64 `json:"values"`
}

var refInput = func() []refRecord {
	rng := rand.New(rand.NewSource(1))
	in := make([]refRecord, 200)
	for i := range in {
		in[i] = refRecord{ID: i, Values: []float64{rng.Float64(), rng.Float64()}}
	}
	return in
}()

// referenceOp is one unit of the machine-speed reference: encode 200
// records to JSON, decode them, sort them. The mix (allocation, memory
// traffic, branches) is that of the stack's own hot paths, which is why
// it slows down with them when a neighbour takes cache and memory
// bandwidth: an integer spin (correlation 0.15 with the workloads) and a
// pointer chase (0.2-0.6) were tried first and do not.
func referenceOp() int {
	b, err := json.Marshal(refInput)
	if err != nil {
		panic(err) // a fixed, valid input
	}
	var out []refRecord
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Values[0] < out[j].Values[0] })
	return len(out)
}

// refGoroutines is how many goroutines run the reference after a window:
// both vCPUs, whatever the workload's client count.
const refGoroutines = 2

// calibrate runs the reference op on the given number of goroutines for
// d and returns the time one op took, in ms. It follows every window:
// when the machine is in a slow phase this moves with it, and the
// window's rate is divided by it (ops_per_kref).
func calibrate(d time.Duration, goroutines int) float64 {
	var wg sync.WaitGroup
	perOp := make([]float64, goroutines)
	start := time.Now()
	for g := range perOp {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 1; ; n++ {
				referenceOp()
				if el := time.Since(start); el >= d {
					perOp[g] = ms(el) / float64(n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	sum := 0.0
	for _, v := range perOp {
		sum += v
	}
	return sum / float64(goroutines)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundRef is how long the reference runs after a one-round window.
const roundRef = 150 * time.Millisecond

// runWindow fills one slot: it drives inst closed-loop with w.clients
// issuers for three quarters of the slot (or for exactly one op per
// client when the slot is zero), then runs the reference for the rest.
// next holds each client's running op index so successive windows walk
// on through the query pool.
func runWindow(ctx context.Context, w *workload, inst instance, slot time.Duration, next []int) window {
	d, ref := slot*3/4, slot/4
	if slot == 0 {
		ref = roundRef
	}
	runtime.GC()
	before := readProc()
	type clientOut struct {
		lat     []int64
		failed  int
		elapsed time.Duration
	}
	outs := make([]clientOut, w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for {
				lat, ok := inst.op(ctx, c, next[c])
				next[c]++
				o.lat = append(o.lat, int64(lat))
				if !ok {
					o.failed++
				}
				if o.elapsed = time.Since(start); o.elapsed >= d {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	after := readProc()

	var win window
	for _, o := range outs {
		win.Ops += len(o.lat)
		win.Failed += o.failed
		// Each client's rate over its own whole ops: no client is
		// charged for the tail in which it waited for the other.
		win.OpsPerS += float64(len(o.lat)) / o.elapsed.Seconds()
		win.lat = append(win.lat, o.lat...)
	}
	if w.rounds {
		// A round's end-of-round verification is the benchmark's work,
		// and at this op length it is not negligible: rate the round by
		// the time spent in the system alone.
		win.OpsPerS = 1 / time.Duration(win.lat[0]).Seconds()
	}
	sorted := append([]int64(nil), win.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	win.P50Ms = float64(percentile(sorted, 50)) / 1e6
	win.CPUMs = ms(after.cpu - before.cpu)
	win.Allocs = after.mallocs - before.mallocs
	win.AllocKB = float64(after.bytes-before.bytes) / 1024
	win.GCPauseMs = float64(after.pause-before.pause) / 1e6
	win.RefMs = calibrate(ref, refGoroutines)
	win.OpsPerKref = 1000 * win.OpsPerS / (refGoroutines * 1000 / win.RefMs)
	return win
}

// percentile returns the p-th percentile of an ascending slice by the
// nearest-rank rule.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports".
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// supportedTail picks the highest candidate percentile that still has at
// least ten samples beyond it, so a reported tail is never the max of a
// small sample in disguise.
func supportedTail(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		// The epsilon keeps 99.9 % of 10 000 at 9 990, not 9 991.
		if within := int(math.Ceil(float64(n)*p/100 - 1e-9)); n-within >= 10 {
			best = p
		}
	}
	return best
}

// opsPerKref is the end-to-end throughput of a set of windows: the
// median over the windows of the window's rate divided by the
// reference's rate measured right after it. This box's slow phases (a
// neighbour taking cache and memory bandwidth) last from seconds to
// minutes, longer than a run, and slow the reference by the same factor
// as the workload; over forty-three ten-second segments the raw best
// window of cluster-small spread 13.6 % and the median paired ratio
// 4.1 %. Every window counts: the pairing is the noise guard, and a
// window set aside for a slow reference would only move the median.
func opsPerKref(ws []window) float64 {
	rel := make([]float64, len(ws))
	for i, x := range ws {
		rel[i] = x.OpsPerKref
	}
	return median(rel)
}

// opsPerS is the median window's raw rate, a per-layer diagnostic.
func opsPerS(ws []window) float64 {
	rates := make([]float64, len(ws))
	for i, x := range ws {
		rates[i] = x.OpsPerS
	}
	return median(rates)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowsPerRun is how many fixed-duration windows a query workload's
// measuring time is cut into.
const windowsPerRun = 16

// runResult is everything one untraced pass over one workload yields.
type runResult struct {
	Windows   []window  `json:"windows"`
	SetupS    []float64 `json:"setup_s"`     // at reference speed
	SetupRawS []float64 `json:"setup_raw_s"` // as timed
	HeapMB    float64   `json:"heap_live_mb"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Leaked    int       `json:"leaked_goroutines"`
}

func (r *runResult) merge(o runResult) {
	r.Windows = append(r.Windows, o.Windows...)
	r.SetupS = append(r.SetupS, o.SetupS...)
	r.SetupRawS = append(r.SetupRawS, o.SetupRawS...)
	r.HeapMB = o.HeapMB
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Leaked += o.Leaked
}

// setUp builds the workload's fixture and warms it; the time it takes
// is one set-up sample.
func setUp(ctx context.Context, w *workload, seed int64, hooks *tracer) (instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.build(seed, hooks)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: build: %w", w.name, err)
	}
	for i := 0; i < w.warmup; i++ {
		if _, ok := inst.op(ctx, i%w.clients, i); !ok {
			inst.close()
			return nil, 0, fmt.Errorf("%s: warm-up op %d returned a wrong answer", w.name, i)
		}
	}
	return inst, time.Since(start), nil
}

// Set-up is repeated to report its median: at least minSetupReps times,
// then for as long as setupBudget lasts, at most maxSetupReps times.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 1500 * time.Millisecond
	setupRef     = 100 * time.Millisecond
)

// refNominalMs is what a reference op takes on this box when it is
// quiet. setup_s is the measured set-up time scaled by nominal over the
// reference time measured around it: seconds at reference speed. Set-up
// is the metric a slow phase hits hardest (2-4x under CPU steal, where
// throughput moves 20-40 %), and the driver compares its medians across
// sets of runs taken minutes apart.
const refNominalMs = 0.4

// setupReference times the reference the way set-up itself runs: on one
// goroutine (set-up is one caller building things in sequence; with a
// neighbour on one vCPU the two-goroutine reference takes half as long
// again while set-up does not) and with set-up's garbage collected first, or the
// collector runs beside the reference. Over sixty set-ups of
// cluster-small the mean of the references before and after correlated
// 0.78 with the set-up time and the two-goroutine one 0.30.
func setupReference() float64 {
	runtime.GC()
	return calibrate(setupRef, 1)
}

// measure runs one untraced pass: set up repeatedly (keeping the last
// fixture), verify, then measure for about d in the given number of
// windows. A positive setupReps fixes the number of set-ups instead of
// budgeting it.
func measure(ctx context.Context, w *workload, seed int64, d time.Duration, windows, setupReps int) (runResult, error) {
	var res runResult
	base := liveGoroutines()
	var inst instance
	var spent time.Duration
	ref := setupReference()
	for rep := 0; rep < setupReps || setupReps == 0 && rep < maxSetupReps && (rep < minSetupReps || spent < setupBudget); rep++ {
		if inst != nil {
			inst.close()
		}
		var took time.Duration
		var err error
		if inst, took, err = setUp(ctx, w, seed, nil); err != nil {
			return res, err
		}
		before := ref
		ref = setupReference()
		spent += took + setupRef
		res.SetupRawS = append(res.SetupRawS, took.Seconds())
		res.SetupS = append(res.SetupS, took.Seconds()*refNominalMs/((before+ref)/2))
	}
	defer func() {
		inst.close()
		res.Leaked = awaitGoroutines(base)
	}()
	res.HeapMB = heapLiveMB()
	if err := inst.verify(ctx); err != nil {
		return res, fmt.Errorf("%s: verification: %w", w.name, err)
	}
	res.Windows = measureWindows(ctx, w, inst, d, windows)
	for _, win := range res.Windows {
		res.Attempted += win.Ops
		res.Failed += win.Failed
	}
	return res, nil
}

// firstIndices returns each client's first op index after the warm-up
// ops: client c takes c, c+clients, ... modulo the pool.
func firstIndices(w *workload) []int {
	next := make([]int, w.clients)
	for c := range next {
		next[c] = w.warmup + c
	}
	return next
}

// measureWindows cuts d into n windows (for a round workload: as many
// one-round windows as fit, at least two).
func measureWindows(ctx context.Context, w *workload, inst instance, d time.Duration, n int) []window {
	next := firstIndices(w)
	each := d / time.Duration(n)
	if w.rounds {
		each = 0
	}
	// One discarded window first: connection pools, the collector's heap
	// target and the CPU's clock all settle over the first few hundred
	// ops, well after set-up's warm-up ops.
	runWindow(ctx, w, inst, each/2, next)
	var ws []window
	start := time.Now()
	more := func() bool {
		if w.rounds {
			return len(ws) < 2 || time.Since(start) < d
		}
		return len(ws) < n
	}
	for more() {
		ws = append(ws, runWindow(ctx, w, inst, each, next))
	}
	return ws
}

// heapLiveMB is the live heap after a forced collection: what set-up
// left resident (tables, indexes, pools).
func heapLiveMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// liveGoroutines counts goroutines other than the executor's parked
// disk workers, which belong to a process-wide pool that retires them
// only after ten idle seconds.
func liveGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	live := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "(*execWorker).loop") {
			live++
		}
	}
	return live
}

// awaitGoroutines waits up to two seconds for the goroutine count to
// come back to base and returns how many are still beyond it.
func awaitGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		over := liveGoroutines() - base
		if over <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return over
		}
		time.Sleep(10 * time.Millisecond)
	}
}
