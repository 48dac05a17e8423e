package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/grid"
	"decluster/internal/query"
)

// eachRectOf enumerates every axis-aligned rectangle of a small grid.
func eachRectOf(g *grid.Grid, fn func(r grid.Rect)) {
	g.Each(func(lo grid.Coord) bool {
		loC := lo.Clone()
		g.Each(func(hi grid.Coord) bool {
			for i := range loC {
				if hi[i] < loC[i] {
					return true
				}
			}
			fn(grid.Rect{Lo: loC, Hi: hi.Clone()})
			return true
		})
		return true
	})
}

// The prefix and walk kernels must agree with the reference walk on
// every rectangle of every method — exhaustively on small grids. The
// one-axis grid is there because the walk reads the last axis as one
// contiguous run.
func TestPrefixMatchesReferenceExhaustive(t *testing.T) {
	for _, dims := range [][]int{{9}, {8, 8}, {5, 7}, {4, 4, 4}, {3, 4, 2, 3}} {
		g := grid.MustNew(dims...)
		for _, m := range alloc.PaperSet(g, 5) {
			e, err := NewPrefixEvaluator(m)
			if err != nil {
				t.Fatalf("%v %s: %v", dims, m.Name(), err)
			}
			if e.Method() != m {
				t.Fatal("Method accessor wrong")
			}
			walk := NewEvaluator(m)
			eachRectOf(g, func(r grid.Rect) {
				want := ResponseTime(m, r)
				if got := e.ResponseTime(r); got != want {
					t.Fatalf("%s on %v grid, %v: prefix %d, reference %d", m.Name(), g, r, got, want)
				}
				if got := walk.ResponseTime(r); got != want {
					t.Fatalf("%s on %v grid, %v: walk %d, reference %d", m.Name(), g, r, got, want)
				}
			})
		}
	}
}

// Per-disk loads, not just their max, must match the reference.
func TestPrefixDiskLoadsMatchReference(t *testing.T) {
	g := grid.MustNew(9, 6)
	m, _ := alloc.NewHCAM(g, 4)
	e, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	eachRectOf(g, func(r grid.Rect) {
		got := e.Loads(r)
		want := DiskLoads(m, r)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("%v: loads %v, reference %v", r, got, want)
			}
		}
	})
}

// Evaluate must be bit-identical across the three kernels: same integer
// sums, same float divisions.
func TestPrefixEvaluateBitIdentical(t *testing.T) {
	g := grid.MustNew(32, 32)
	w, err := query.RandomRange(g, 3, 20, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range alloc.PaperSet(g, 8) {
		pe, err := NewPrefixEvaluator(m)
		if err != nil {
			t.Fatal(err)
		}
		naive := Evaluate(m, w)
		walk := NewEvaluator(m).Evaluate(w)
		prefix := pe.Evaluate(w)
		if naive != walk || walk != prefix {
			t.Fatalf("%s: kernels disagree\nnaive  %+v\nwalk   %+v\nprefix %+v", m.Name(), naive, walk, prefix)
		}
	}
}

func TestPrefixEmptyWorkload(t *testing.T) {
	g := grid.MustNew(4, 4)
	m, _ := alloc.NewDM(g, 2)
	e, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Evaluate(query.Workload{Name: "empty"})
	if res.Queries != 0 || res.Ratio != 1 {
		t.Fatalf("empty workload result %+v", res)
	}
}

// Clone shares tables but not scratch: concurrent clones must stay
// correct (run under -race).
func TestPrefixCloneConcurrent(t *testing.T) {
	g := grid.MustNew(16, 16)
	m, _ := alloc.NewHCAM(g, 8)
	base, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(seed int64) {
			e := base.Clone()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 200; trial++ {
				lo0, lo1 := rng.Intn(16), rng.Intn(16)
				r := g.MustRect(grid.Coord{lo0, lo1},
					grid.Coord{lo0 + rng.Intn(16-lo0), lo1 + rng.Intn(16-lo1)})
				if got, want := e.ResponseTime(r), ResponseTime(m, r); got != want {
					done <- errMismatch(m.Name(), r, got, want)
					return
				}
			}
			done <- nil
		}(int64(i + 1))
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func errMismatch(name string, r grid.Rect, got, want int) error {
	return &mismatchError{name: name, r: r, got: got, want: want}
}

type mismatchError struct {
	name      string
	r         grid.Rect
	got, want int
}

func (e *mismatchError) Error() string {
	return e.name + " on " + e.r.String() + ": clone disagrees with reference"
}

func TestPrefixTableBytes(t *testing.T) {
	g := grid.MustNew(64, 64)
	// 65×65 cells × 32 disks × 4 bytes.
	if got, want := PrefixTableBytes(g, 32), int64(65*65*32*4); got != want {
		t.Errorf("PrefixTableBytes = %d, want %d", got, want)
	}
	e, err := NewPrefixEvaluator(mustHCAM(t, g, 32))
	if err != nil {
		t.Fatal(err)
	}
	if e.TableBytes() != PrefixTableBytes(g, 32) {
		t.Errorf("TableBytes %d != estimate %d", e.TableBytes(), PrefixTableBytes(g, 32))
	}
}

func mustHCAM(t *testing.T, g *grid.Grid, m int) alloc.Method {
	t.Helper()
	h, err := alloc.NewHCAM(g, m)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestKernelSelection(t *testing.T) {
	g := grid.MustNew(16, 16)
	m, _ := alloc.NewDM(g, 4)

	if _, err := ParseKernel("bogus"); err == nil {
		t.Error("ParseKernel accepted bogus")
	}
	for _, tc := range []struct {
		in   string
		want Kernel
	}{{"auto", KernelAuto}, {"walk", KernelWalk}, {"PREFIX", KernelPrefix}, {"", KernelAuto}} {
		k, err := ParseKernel(tc.in)
		if err != nil || k != tc.want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", tc.in, k, err, tc.want)
		}
	}
	for _, k := range []Kernel{KernelAuto, KernelWalk, KernelPrefix} {
		if k.String() == "" {
			t.Error("empty kernel name")
		}
	}

	// Forced kernels produce their concrete types.
	e, err := NewKernelEvaluator(m, KernelWalk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*Evaluator); !ok {
		t.Errorf("KernelWalk built %T", e)
	}
	e, err = NewKernelEvaluator(m, KernelPrefix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*PrefixEvaluator); !ok {
		t.Errorf("KernelPrefix built %T", e)
	}

	// Auto honours the budget: generous → prefix, starved → walk.
	e, err = NewKernelEvaluator(m, KernelAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*PrefixEvaluator); !ok {
		t.Errorf("KernelAuto with default budget built %T, want prefix", e)
	}
	e, err = NewKernelEvaluator(m, KernelAuto, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*Evaluator); !ok {
		t.Errorf("KernelAuto with 16-byte budget built %T, want walk", e)
	}

	if _, err := NewKernelEvaluator(m, Kernel(99), 0); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// AutoKernel gives prefix tables only to work that pays for them, and
// only within the budget.
func TestAutoKernelResolution(t *testing.T) {
	// DatabaseSize-like: a 257² table per disk to answer 2,000 8×8
	// queries — building costs far more than walking 128,000 buckets.
	big := grid.MustNew(256, 256)
	small, err := query.Placements(big, []int{8, 8}, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k := AutoKernel(big, 16, workOf(query.Workload{Queries: small}), 0); k != KernelWalk {
		t.Errorf("256×256, M=16, 2000 8×8 queries: %v, want walk", k)
	}

	// DisksLarge-like: sides 16..48 put ~2.2M bucket probes against a
	// 65² table per disk.
	g := grid.MustNew(64, 64)
	large, err := query.RandomRange(g, 16, 48, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	work := workOf(large)
	if k := AutoKernel(g, 16, work, 0); k != KernelPrefix {
		t.Errorf("64×64, M=16, sides 16..48: %v, want prefix", k)
	}
	if k := AutoKernel(g, 16, work, PrefixTableBytes(g, 16)-1); k != KernelWalk {
		t.Errorf("budget below the tables: %v, want walk", k)
	}

	// No work never pays for tables.
	if k := AutoKernel(g, 16, Work{}, 0); k != KernelWalk {
		t.Errorf("no work: %v, want walk", k)
	}
}

// workOf measures a workload as the sweep engine does: its queries and
// their total volume.
func workOf(w query.Workload) Work {
	out := Work{Queries: int64(len(w.Queries))}
	for _, q := range w.Queries {
		out.Buckets += int64(q.Volume())
	}
	return out
}

// TestLoadsZeroAllocs gates the hot-path allocation budget of the
// prefix kernel: after construction, Loads (and therefore ResponseTime)
// must not allocate — the corner terms are built by doubling into the
// evaluator's reusable buffer.
func TestLoadsZeroAllocs(t *testing.T) {
	g := grid.MustNew(24, 24)
	m, err := alloc.NewHCAM(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	r := g.MustRect(grid.Coord{3, 5}, grid.Coord{20, 17})
	sink := 0
	if avg := testing.AllocsPerRun(200, func() {
		loads := e.Loads(r)
		sink += loads[0]
	}); avg > 0 {
		t.Errorf("PrefixEvaluator.Loads allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		sink += e.ResponseTime(r)
	}); avg > 0 {
		t.Errorf("PrefixEvaluator.ResponseTime allocates %.1f allocs/op, want 0", avg)
	}
	_ = sink
}

// referencePrefixTables is the straightforward table build the blocked
// one replaced — a g.Each scatter that recomputes every padded offset,
// then per axis one pass over all cells with a divide and a modulo per
// cell — kept as the oracle the fast build must equal bit for bit.
func referencePrefixTables(m alloc.Method) *PrefixEvaluator {
	g := m.Grid()
	disks := m.Disks()
	k := g.K()
	paddedDims := make([]int, k)
	cells := 1
	for i := 0; i < k; i++ {
		paddedDims[i] = g.Dim(i) + 1
		cells *= paddedDims[i]
	}
	cellStrides := make([]int, k)
	stride := 1
	for i := k - 1; i >= 0; i-- {
		cellStrides[i] = stride
		stride *= paddedDims[i]
	}
	sat := make([]int32, cells*disks)
	g.Each(func(c grid.Coord) bool {
		off := 0
		for i, v := range c {
			off += (v + 1) * cellStrides[i] * disks
		}
		sat[off+m.DiskOf(c)]++
		return true
	})
	for axis := 0; axis < k; axis++ {
		for p := 0; p < cells; p++ {
			if (p/cellStrides[axis])%paddedDims[axis] == 0 {
				continue
			}
			dst := p * disks
			src := dst - cellStrides[axis]*disks
			for d := 0; d < disks; d++ {
				sat[dst+d] += sat[src+d]
			}
		}
	}
	return &PrefixEvaluator{disks: disks, k: k, paddedDims: paddedDims, sat: sat}
}

// The blocked build must produce the reference build's tables exactly,
// on cubes, ragged grids and up to four axes.
func TestPrefixBuildMatchesReference(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {5, 7}, {4, 4, 4}, {3, 4, 2, 3}, {12, 10}, {1, 9}} {
		g := grid.MustNew(dims...)
		for _, disks := range []int{4, 5} {
			for _, m := range alloc.PaperSet(g, disks) {
				e, err := NewPrefixEvaluator(m)
				if err != nil {
					t.Fatalf("%v %s: %v", dims, m.Name(), err)
				}
				if !e.TablesEqual(referencePrefixTables(m)) {
					t.Fatalf("%s over %d disks on %v: blocked build differs from the reference build", m.Name(), disks, g)
				}
			}
		}
	}
}

// BenchmarkPrefixBuild builds the prefix tables of HCAM, the sweeps'
// most common prefix-table method, from scratch.
func BenchmarkPrefixBuild(b *testing.B) {
	for _, tc := range []struct {
		dims  []int
		disks int
	}{{[]int{64, 64}, 16}, {[]int{64, 64}, 32}, {[]int{256, 256}, 16}, {[]int{16, 16, 16}, 16}} {
		g := grid.MustNew(tc.dims...)
		m, err := alloc.NewHCAM(g, tc.disks)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%v/M%d", g, tc.disks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPrefixEvaluator(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
