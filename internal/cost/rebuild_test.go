package cost

import (
	"math/rand"
	"slices"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/grid"
)

// rebuildSequence is a run of methods whose grids shrink and grow, over
// k = 1…4 axes and M = 2…32 disks, every paper method among them.
func rebuildSequence(t *testing.T) []alloc.Method {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	sides := [][]int{{1, 40}, {1, 14}, {1, 7}, {1, 5}} // side range per k
	var out []alloc.Method
	for len(out) < 80 {
		k := 1 + rng.Intn(4)
		dims := make([]int, k)
		for i := range dims {
			lo, hi := sides[k-1][0], sides[k-1][1]
			dims[i] = lo + rng.Intn(hi-lo+1)
		}
		if rng.Intn(3) == 0 { // powers of two, so ECC applies
			for i := range dims {
				dims[i] = 1 << rng.Intn(4-k/2)
			}
		}
		g := grid.MustNew(dims...)
		set := alloc.PaperSet(g, 2+rng.Intn(31))
		out = append(out, set[rng.Intn(len(set))])
	}
	return out
}

// sampledRects draws n rectangles of g.
func sampledRects(g *grid.Grid, rng *rand.Rand, n int) []grid.Rect {
	out := make([]grid.Rect, n)
	for j := range out {
		lo, hi := make(grid.Coord, g.K()), make(grid.Coord, g.K())
		for i := range lo {
			lo[i] = rng.Intn(g.Dim(i))
			hi[i] = lo[i] + rng.Intn(g.Dim(i)-lo[i])
		}
		out[j] = grid.Rect{Lo: lo, Hi: hi}
	}
	return out
}

// Rebuilding one kernel in place through methods of every shape must
// give what a fresh build gives, whatever the reused memory held: the
// whole backing array is filled with a sentinel before each step. The
// walk kernel's Rebuild is held to alloc.Table the same way.
func TestPrefixRebuild(t *testing.T) {
	t.Run("prefix", testPrefixRebuild)
	t.Run("walk", testEvaluatorRebuild)
}

func testPrefixRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var e *PrefixEvaluator
	for step, m := range rebuildSequence(t) {
		if e == nil {
			var err error
			if e, err = NewPrefixEvaluator(m); err != nil {
				t.Fatal(err)
			}
		} else {
			sat := e.sat[:cap(e.sat)]
			for i := range sat {
				sat[i] = -7
			}
			if err := e.Rebuild(m); err != nil {
				t.Fatalf("step %d, %s on %v: %v", step, m.Name(), m.Grid(), err)
			}
		}
		fresh, err := NewPrefixEvaluator(m)
		if err != nil {
			t.Fatal(err)
		}
		if !e.TablesEqual(fresh) || e.Method() != m {
			t.Fatalf("step %d: %s over %d disks on %v: rebuilt tables differ from a fresh build", step, m.Name(), m.Disks(), m.Grid())
		}
		for _, r := range sampledRects(m.Grid(), rng, 40) {
			if got, want := e.ResponseTime(r), ResponseTime(m, r); got != want {
				t.Fatalf("step %d: %s on %v, %v: rebuilt kernel %d, reference %d", step, m.Name(), m.Grid(), r, got, want)
			}
		}
	}

	// Unrepresentable tables leave the kernel as it was.
	before := slices.Clone(e.sat)
	huge, err := alloc.NewDM(grid.MustNew(1<<16, 1<<16), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rebuild(huge); err == nil {
		t.Fatal("Rebuild accepted a grid beyond int32 counters")
	}
	if !slices.Equal(e.sat, before) || e.Method() == huge {
		t.Fatal("a failed Rebuild changed the kernel")
	}
}

func testEvaluatorRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var e *Evaluator
	for step, m := range rebuildSequence(t) {
		if e == nil {
			e = NewEvaluator(m)
		} else {
			table := e.table[:cap(e.table)]
			for i := range table {
				table[i] = -7
			}
			e.Rebuild(m)
		}
		if !slices.Equal(e.table, alloc.Table(m)) || e.Method() != m {
			t.Fatalf("step %d: %s over %d disks on %v: rebuilt table differs from alloc.Table", step, m.Name(), m.Disks(), m.Grid())
		}
		for _, r := range sampledRects(m.Grid(), rng, 40) {
			if got, want := e.ResponseTime(r), ResponseTime(m, r); got != want {
				t.Fatalf("step %d: %s on %v, %v: rebuilt kernel %d, reference %d", step, m.Name(), m.Grid(), r, got, want)
			}
		}
	}
}

// The walk's per-disk counters are cleared by the max pass that reads
// them, not before each query, so they must be all zero between queries
// however an Evaluator came to be: built, cloned, or rebuilt onto a
// larger M and then a smaller one over arrays holding a sentinel.
// Answers alternate between a kernel and its clone.
func TestEvaluatorScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := grid.MustNew(24, 20)
	var e *Evaluator
	for _, disks := range []int{8, 16, 5} {
		m, err := alloc.NewHCAM(g, disks)
		if err != nil {
			t.Fatal(err)
		}
		if e == nil {
			e = NewEvaluator(m)
		} else {
			for _, s := range [][]int{e.table[:cap(e.table)], e.loads[:cap(e.loads)], e.cur[:cap(e.cur)]} {
				for i := range s {
					s[i] = -7
				}
			}
			e.Rebuild(m)
		}
		clone := e.Clone()
		for j, r := range sampledRects(g, rng, 60) {
			ev := e
			if j%3 == 1 {
				ev = clone
			}
			if got, want := ev.ResponseTime(r), ResponseTime(m, r); got != want {
				t.Fatalf("M=%d, query %d %v: %d, reference %d", disks, j, r, got, want)
			}
		}
	}
}
