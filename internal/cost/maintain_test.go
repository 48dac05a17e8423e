package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/grid"
)

// mutMethod is a mutable allocation over an explicit table — the test
// double for a store (dyngrid) whose cell→disk mapping changes under
// the evaluator.
type mutMethod struct {
	g     *grid.Grid
	disks int
	table []int
}

func newMutMethod(g *grid.Grid, disks int, seed int64) *mutMethod {
	rng := rand.New(rand.NewSource(seed))
	table := make([]int, g.Buckets())
	for i := range table {
		table[i] = rng.Intn(disks)
	}
	return &mutMethod{g: g, disks: disks, table: table}
}

func (m *mutMethod) Name() string     { return "mut" }
func (m *mutMethod) Grid() *grid.Grid { return m.g }
func (m *mutMethod) Disks() int       { return m.disks }
func (m *mutMethod) DiskOf(c grid.Coord) int {
	if !m.g.Contains(c) {
		panic("mutMethod: coordinate outside grid")
	}
	return m.table[m.g.Linearize(c)]
}

// move reassigns bucket b to disk d and returns the previous disk.
func (m *mutMethod) move(b, d int) int {
	old := m.table[b]
	m.table[b] = d
	return old
}

// FuzzPrefixApplyDelta is the differential proof obligation of delta
// maintenance: folding an arbitrary stream of cell moves into the
// summed-area tables with ApplyDelta must leave tables bit-identical to
// a from-scratch rebuild over the mutated allocation — TablesEqual, not
// just equal answers on sampled rectangles. The stream bytes decode to
// (bucket, disk) move pairs so the fuzzer explores edge cells (cell 0,
// the high corner) and no-op moves (to == from) for free.
func FuzzPrefixApplyDelta(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(0), uint8(4), int64(1), []byte{0, 1, 63, 2, 17, 0})
	f.Add(uint8(16), uint8(5), uint8(3), uint8(7), int64(2), []byte{255, 6, 0, 0, 128, 3, 128, 3})
	f.Add(uint8(4), uint8(4), uint8(4), uint8(2), int64(3), []byte{9, 1, 9, 0, 9, 1})
	f.Fuzz(func(t *testing.T, d0, d1, d2, disks uint8, seed int64, stream []byte) {
		dims := []int{int(d0)%16 + 1, int(d1)%16 + 1}
		if d2%4 != 0 {
			dims = append(dims, int(d2)%6+1)
		}
		g, err := grid.New(dims...)
		if err != nil {
			t.Skip()
		}
		nd := int(disks)%12 + 1
		m := newMutMethod(g, nd, seed)

		maintained, err := NewPrefixEvaluator(m)
		if err != nil {
			t.Fatalf("prefix build failed on fuzz-scale grid %v: %v", g, err)
		}
		cell := make(grid.Coord, g.K())
		for i := 0; i+1 < len(stream); i += 2 {
			b := int(stream[i]) % g.Buckets()
			to := int(stream[i+1]) % nd
			from := m.move(b, to)
			g.Delinearize(b, cell)
			if err := maintained.ApplyDelta(cell, from, -1); err != nil {
				t.Fatalf("ApplyDelta(%v, %d, -1): %v", cell, from, err)
			}
			if err := maintained.ApplyDelta(cell, to, +1); err != nil {
				t.Fatalf("ApplyDelta(%v, %d, +1): %v", cell, to, err)
			}
		}

		rebuilt, err := NewPrefixEvaluator(m)
		if err != nil {
			t.Fatalf("rebuild failed: %v", err)
		}
		if !maintained.TablesEqual(rebuilt) {
			t.Fatalf("delta-maintained tables diverge from rebuild after %d moves on %v grid × %d disks",
				len(stream)/2, g, nd)
		}
		// Belt and braces: the maintained kernel must also agree with the
		// naive walk over the mutated allocation.
		r := fuzzRect(g, uint8(seed), d0^d1, d1, disks)
		if got, want := maintained.ResponseTime(r), ResponseTime(m, r); got != want {
			t.Fatalf("maintained ResponseTime(%v) = %d, naive = %d", r, got, want)
		}
	})
}

// TestApplyDeltaValidation pins the error cases: wrong arity, cell out
// of range, disk out of range.
func TestApplyDeltaValidation(t *testing.T) {
	g := grid.MustNew(4, 4)
	m, err := alloc.NewDM(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyDelta(grid.Coord{1}, 0, 1); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := e.ApplyDelta(grid.Coord{4, 0}, 0, 1); err == nil {
		t.Error("out-of-range cell accepted")
	}
	if err := e.ApplyDelta(grid.Coord{0, -1}, 0, 1); err == nil {
		t.Error("negative cell accepted")
	}
	if err := e.ApplyDelta(grid.Coord{0, 0}, 4, 1); err == nil {
		t.Error("out-of-range disk accepted")
	}
	if err := e.ApplyDelta(grid.Coord{0, 0}, -1, 1); err == nil {
		t.Error("negative disk accepted")
	}
}

// TestApplyDeltaVisibleToClones pins the shared-table contract: a delta
// applied through one clone is visible to all.
func TestApplyDeltaVisibleToClones(t *testing.T) {
	g := grid.MustNew(6, 6)
	m := newMutMethod(g, 3, 11)
	e, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	cell := grid.Coord{2, 3}
	b := g.Linearize(cell)
	from := m.move(b, (m.table[b]+1)%3)
	to := m.table[b]
	if err := e.ApplyDelta(cell, from, -1); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyDelta(cell, to, +1); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	if !c.TablesEqual(rebuilt) {
		t.Fatal("delta through original not visible to clone")
	}
}

// TestMaintainedEvaluator drives the arbitration wrapper through moves
// and a reshape on both kernels.
func TestMaintainedEvaluator(t *testing.T) {
	for _, kernel := range []Kernel{KernelPrefix, KernelWalk, KernelAuto} {
		g := grid.MustNew(8, 8)
		m := newMutMethod(g, 4, 5)
		me, err := NewMaintainedEvaluator(m, kernel, 0)
		if err != nil {
			t.Fatalf("kernel %v: %v", kernel, err)
		}
		rng := rand.New(rand.NewSource(99))
		cell := make(grid.Coord, g.K())
		for i := 0; i < 50; i++ {
			b := rng.Intn(g.Buckets())
			to := rng.Intn(4)
			from := m.move(b, to)
			g.Delinearize(b, cell)
			if err := me.CellMoved(cell, from, to); err != nil {
				t.Fatalf("kernel %v move %d: %v", kernel, i, err)
			}
		}
		r := g.MustRect(grid.Coord{1, 2}, grid.Coord{6, 7})
		if got, want := me.ResponseTime(r), ResponseTime(m, r); got != want {
			t.Fatalf("kernel %v after moves: maintained %d, naive %d", kernel, got, want)
		}

		// Reshape: swap in a bigger grid behind the method's back. The
		// evaluator must re-tile, not serve stale loads.
		g2 := grid.MustNew(16, 16)
		m.g = g2
		m.table = make([]int, g2.Buckets())
		for i := range m.table {
			m.table[i] = rng.Intn(4)
		}
		r2 := g2.MustRect(grid.Coord{3, 0}, grid.Coord{14, 15})
		if got, want := me.ResponseTime(r2), ResponseTime(m, r2); got != want {
			t.Fatalf("kernel %v after reshape: maintained %d, naive %d", kernel, got, want)
		}
	}
}

// TestMaintainedEvaluatorDetectsReshape reshapes with no signal at
// all: the shape check alone must trigger the re-tile.
func TestMaintainedEvaluatorDetectsReshape(t *testing.T) {
	g := grid.MustNew(4, 4)
	m := newMutMethod(g, 2, 7)
	me, err := NewMaintainedEvaluator(m, KernelPrefix, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2 := grid.MustNew(8, 4)
	m.g = g2
	m.table = make([]int, g2.Buckets())
	for i := range m.table {
		m.table[i] = i % 2
	}
	r := g2.FullRect()
	if got, want := me.ResponseTime(r), ResponseTime(m, r); got != want {
		t.Fatalf("unsignalled reshape: maintained %d, naive %d", got, want)
	}
}

// insertLayer grows the allocation the way a dyngrid doubling does:
// cell layer p of the axis is duplicated and every layer above shifts
// up by one.
func (m *mutMethod) insertLayer(axis, p int) {
	dims := m.g.Dims()
	dims[axis]++
	grown := grid.MustNew(dims...)
	table := make([]int, grown.Buckets())
	c := make(grid.Coord, grown.K())
	for b := range table {
		grown.Delinearize(b, c)
		if c[axis] > p {
			c[axis]--
		}
		table[b] = m.table[m.g.Linearize(c)]
	}
	m.g, m.table = grown, table
}

// FuzzPrefixInsertLayer is the differential proof obligation of the
// layer-insert identity: an arbitrary interleaving of InsertLayer (a
// doubling) and MoveCell (a split's cell move) on one- to
// three-attribute tables must leave them bit-identical to a
// from-scratch NewPrefixEvaluator over the mutated allocation after
// every single step. Each stream byte pair is one step: an even first
// byte inserts a layer (axis and position from the pair), an odd one
// moves a cell. The seeds pin p = 0, p = d−1 and a 1-wide axis.
func FuzzPrefixInsertLayer(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), uint8(3), int64(1), []byte{0, 0, 2, 0, 1, 7, 0, 1, 4, 200})
	f.Add(uint8(2), uint8(3), uint8(0), uint8(4), int64(2), []byte{0, 0, 0, 3, 2, 0, 9, 1, 2, 5, 33, 2})
	f.Add(uint8(3), uint8(0), uint8(2), uint8(7), int64(3), []byte{4, 0, 2, 0, 0, 255, 17, 3, 4, 1, 2, 2})
	f.Add(uint8(2), uint8(7), uint8(7), uint8(15), int64(4), []byte{0, 7, 2, 7, 0, 8, 5, 0, 2, 9})
	f.Fuzz(func(t *testing.T, kRaw, d0, d1, disks uint8, seed int64, stream []byte) {
		k := int(kRaw)%3 + 1
		dims := []int{int(d0)%8 + 1, int(d1)%8 + 1, int(d0^d1)%4 + 1}[:k]
		nd := int(disks)%16 + 1
		m := newMutMethod(grid.MustNew(dims...), nd, seed)
		maintained, err := NewPrefixEvaluator(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(stream) > 64 {
			stream = stream[:64] // keeps the grown grid fuzz-scale
		}
		cell := make(grid.Coord, k)
		for i := 0; i+1 < len(stream); i += 2 {
			op, arg := int(stream[i]), int(stream[i+1])
			step := ""
			if op%2 == 0 {
				axis := op / 2 % k
				p := arg % m.g.Dim(axis)
				step = fmt.Sprintf("InsertLayer(%d, %d) on %v", axis, p, m.g)
				m.insertLayer(axis, p)
				err = maintained.InsertLayer(axis, p)
			} else {
				b := (op/2*256 + arg) % m.g.Buckets()
				to := arg % nd
				from := m.move(b, to)
				m.g.Delinearize(b, cell)
				step = fmt.Sprintf("MoveCell(%v, %d, %d) on %v", cell, from, to, m.g)
				err = maintained.MoveCell(cell, from, to)
			}
			if err != nil {
				t.Fatalf("step %d, %s: %v", i/2, step, err)
			}
			rebuilt, err := NewPrefixEvaluator(m)
			if err != nil {
				t.Fatal(err)
			}
			if !maintained.TablesEqual(rebuilt) {
				t.Fatalf("step %d, %s: maintained tables diverge from rebuild", i/2, step)
			}
		}
		r := m.g.FullRect()
		if got, want := maintained.ResponseTime(r), ResponseTime(m, r); got != want {
			t.Fatalf("maintained ResponseTime(%v) = %d, naive = %d", r, got, want)
		}
	})
}

// TestInsertLayerValidation pins what InsertLayer rejects, and that a
// rejected call leaves the tables as they were.
func TestInsertLayerValidation(t *testing.T) {
	m := newMutMethod(grid.MustNew(4, 3), 4, 1)
	e, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		axis, p int
	}{
		{"negative axis", -1, 0},
		{"axis past k", 2, 0},
		{"negative layer", 0, -1},
		{"layer past the axis", 1, 3},
		{"method not grown", 0, 1},
	} {
		if err := e.InsertLayer(c.axis, c.p); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	m.insertLayer(1, 2)
	if err := e.InsertLayer(0, 1); err == nil {
		t.Error("method grown on another axis accepted")
	}
	if err := e.InsertLayer(1, 2); err != nil {
		t.Fatalf("valid insert after rejected ones: %v", err)
	}
	rebuilt, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	if !e.TablesEqual(rebuilt) {
		t.Fatal("rejected inserts disturbed the tables")
	}
}

// TestMoveCellMatchesApplyDeltas pins MoveCell as exactly the −1/+1
// ApplyDelta pair it replaces — same tables, same rejections.
func TestMoveCellMatchesApplyDeltas(t *testing.T) {
	g := grid.MustNew(7, 5, 3)
	m := newMutMethod(g, 5, 3)
	fused, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	paired, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	cell := make(grid.Coord, g.K())
	for i := 0; i < 200; i++ {
		b := rng.Intn(g.Buckets())
		to := rng.Intn(5) // to == from happens: a no-op on both sides
		from := m.move(b, to)
		g.Delinearize(b, cell)
		if err := fused.MoveCell(cell, from, to); err != nil {
			t.Fatal(err)
		}
		if err := paired.ApplyDelta(cell, from, -1); err != nil {
			t.Fatal(err)
		}
		if err := paired.ApplyDelta(cell, to, +1); err != nil {
			t.Fatal(err)
		}
		if !fused.TablesEqual(paired) {
			t.Fatalf("move %d of %v from %d to %d: MoveCell and the ApplyDelta pair disagree", i, cell, from, to)
		}
	}
	for _, c := range []struct {
		name     string
		cell     grid.Coord
		from, to int
	}{
		{"arity mismatch", grid.Coord{1, 1}, 0, 1},
		{"out-of-range cell", grid.Coord{7, 0, 0}, 0, 1},
		{"negative cell", grid.Coord{0, -1, 0}, 0, 1},
		{"out-of-range from", grid.Coord{0, 0, 0}, 5, 1},
		{"negative from", grid.Coord{0, 0, 0}, -1, 1},
		{"out-of-range to", grid.Coord{0, 0, 0}, 0, 5},
		{"negative to", grid.Coord{0, 0, 0}, 0, -1},
	} {
		if err := fused.MoveCell(c.cell, c.from, c.to); err == nil {
			t.Errorf("MoveCell: %s accepted", c.name)
		}
	}
	if !fused.TablesEqual(paired) {
		t.Fatal("a rejected MoveCell disturbed the tables")
	}
}

// TestMoveCellZeroAllocs gates the split path's kernel update.
func TestMoveCellZeroAllocs(t *testing.T) {
	m := newMutMethod(grid.MustNew(24, 24), 16, 1)
	e, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	cell := grid.Coord{5, 9}
	if avg := testing.AllocsPerRun(200, func() {
		if e.MoveCell(cell, 3, 4) != nil || e.MoveCell(cell, 4, 3) != nil {
			t.Fatal("MoveCell rejected a valid move")
		}
	}); avg > 0 {
		t.Errorf("PrefixEvaluator.MoveCell allocates %.1f allocs/op, want 0", avg)
	}
}

// TestInsertLayerAmortisedAllocs gates the doubling path: growing 1×1
// to 128×128 one layer at a time moves the tables to a new backing
// array at most ⌈log₂(growth)⌉+1 times — every other insert is in
// place — and still ends bit-identical to a rebuild.
func TestInsertLayerAmortisedAllocs(t *testing.T) {
	m := newMutMethod(grid.MustNew(1, 1), 16, 1)
	e, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	first := len(e.sat)
	rng := rand.New(rand.NewSource(2))
	moves := 0
	for m.g.Dim(0) < 128 || m.g.Dim(1) < 128 {
		axis := 0
		if m.g.Dim(1) < m.g.Dim(0) {
			axis = 1
		}
		p := rng.Intn(m.g.Dim(axis))
		m.insertLayer(axis, p)
		before := cap(e.sat)
		if err := e.InsertLayer(axis, p); err != nil {
			t.Fatal(err)
		}
		if cap(e.sat) != before {
			moves++
		}
	}
	limit := 1
	for n := first; n < len(e.sat); n *= 2 {
		limit++
	}
	if moves > limit {
		t.Errorf("%d table allocations growing %d → %d counters, want ≤ %d", moves, first, len(e.sat), limit)
	}
	rebuilt, err := NewPrefixEvaluator(m)
	if err != nil {
		t.Fatal(err)
	}
	if !e.TablesEqual(rebuilt) {
		t.Fatal("tables after 254 in-place inserts diverge from rebuild")
	}
}

// TestMaintainedEvaluatorLayerInserted drives the doubling path of the
// arbitration wrapper: in place on a live prefix kernel that still
// fits — the kernel it hands out is the same one, never a Clone an
// insert would invalidate — back to the walk kernel when the grown
// tables pass KernelAuto's budget, exactly as a re-tile would choose,
// and never a table at all under KernelWalk.
func TestMaintainedEvaluatorLayerInserted(t *testing.T) {
	g := grid.MustNew(6, 6)
	fits := PrefixTableBytes(g, 4)
	for _, c := range []struct {
		name       string
		kernel     Kernel
		budget     int64
		wantPrefix bool
	}{
		{"forced prefix", KernelPrefix, 0, true},
		{"auto, default budget", KernelAuto, 0, true},
		{"auto, budget the grown tables exceed", KernelAuto, fits, false},
		{"walk", KernelWalk, 0, false},
	} {
		m := newMutMethod(g, 4, 5)
		me, err := NewMaintainedEvaluator(m, c.kernel, c.budget)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		attached := me.Prefix()
		if (attached != nil) != (c.kernel != KernelWalk) {
			t.Fatalf("%s: attach-time kernel: prefix %v", c.name, attached != nil)
		}
		m.insertLayer(1, 5)
		me.LayerInserted(1, 5)
		b := m.g.Linearize(grid.Coord{2, 6})
		from := m.move(b, (m.table[b]+1)%4)
		if err := me.CellMoved(grid.Coord{2, 6}, from, m.table[b]); err != nil {
			t.Fatalf("%s: move in the grown shape: %v", c.name, err)
		}
		switch got := me.Prefix(); {
		case c.wantPrefix && got != attached:
			t.Errorf("%s: doubling replaced the live prefix kernel", c.name)
		case !c.wantPrefix && got != nil:
			t.Errorf("%s: prefix tables built for the grown shape", c.name)
		}
		if c.wantPrefix {
			rebuilt, err := NewPrefixEvaluator(m)
			if err != nil {
				t.Fatal(err)
			}
			if !me.Prefix().TablesEqual(rebuilt) {
				t.Errorf("%s: maintained tables diverge from rebuild", c.name)
			}
		}
		r := m.g.MustRect(grid.Coord{1, 2}, grid.Coord{5, 6})
		if got, want := me.ResponseTime(r), ResponseTime(m, r); got != want {
			t.Errorf("%s: maintained %d, naive %d", c.name, got, want)
		}
	}
}
