package cost

import (
	"math/rand"
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/grid"
	"decluster/internal/query"
)

// The evaluator must agree with the reference implementation on every
// query for every method.
func TestEvaluatorMatchesReference(t *testing.T) {
	g := grid.MustNew(16, 16)
	rng := rand.New(rand.NewSource(3))
	for _, m := range alloc.PaperSet(g, 8) {
		e := NewEvaluator(m)
		if e.Method() != m {
			t.Fatal("Method accessor wrong")
		}
		for trial := 0; trial < 300; trial++ {
			lo0, lo1 := rng.Intn(16), rng.Intn(16)
			hi0 := lo0 + rng.Intn(16-lo0)
			hi1 := lo1 + rng.Intn(16-lo1)
			r := g.MustRect(grid.Coord{lo0, lo1}, grid.Coord{hi0, hi1})
			if got, want := e.ResponseTime(r), ResponseTime(m, r); got != want {
				t.Fatalf("%s on %v: evaluator %d, reference %d", m.Name(), r, got, want)
			}
		}
	}
}

func TestEvaluatorMatchesReference3D(t *testing.T) {
	g := grid.MustNew(6, 5, 4)
	m, _ := alloc.NewDM(g, 4)
	e := NewEvaluator(m)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		lo := grid.Coord{rng.Intn(6), rng.Intn(5), rng.Intn(4)}
		hi := grid.Coord{
			lo[0] + rng.Intn(6-lo[0]),
			lo[1] + rng.Intn(5-lo[1]),
			lo[2] + rng.Intn(4-lo[2]),
		}
		r := g.MustRect(lo, hi)
		if got, want := e.ResponseTime(r), ResponseTime(m, r); got != want {
			t.Fatalf("%v: evaluator %d, reference %d", r, got, want)
		}
	}
}

func TestEvaluatorEvaluateMatchesPackage(t *testing.T) {
	g := grid.MustNew(32, 32)
	m, _ := alloc.NewHCAM(g, 8)
	qs, err := query.Placements(g, []int{3, 5}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := query.Workload{Name: "3×5", Queries: qs}
	got := NewEvaluator(m).Evaluate(w)
	want := Evaluate(m, w)
	if got != want {
		t.Fatalf("evaluator result %+v != reference %+v", got, want)
	}
}

func TestEvaluatorEmptyWorkload(t *testing.T) {
	g := grid.MustNew(4, 4)
	m, _ := alloc.NewDM(g, 2)
	res := NewEvaluator(m).Evaluate(query.Workload{Name: "empty"})
	if res.Queries != 0 || res.Ratio != 1 {
		t.Fatalf("empty workload result %+v", res)
	}
}

// Clone shares the materialized table but not the scratch: concurrent
// clones must stay correct (run under -race), and a cell moved through
// one is seen by all.
func TestEvaluatorCloneConcurrent(t *testing.T) {
	g := grid.MustNew(16, 16)
	m, _ := alloc.NewHCAM(g, 8)
	base := NewEvaluator(m)
	w := query.Workload{Name: "all 5×3"}
	var err error
	if w.Queries, err = query.Placements(g, []int{5, 3}, 0, 1); err != nil {
		t.Fatal(err)
	}
	want := Evaluate(m, w)
	done := make(chan Result, 4)
	for i := 0; i < 4; i++ {
		go func() { done <- base.Clone().Evaluate(w) }()
	}
	for i := 0; i < 4; i++ {
		if got := <-done; got != want {
			t.Fatalf("clone result %+v, want %+v", got, want)
		}
	}
	c := base.Clone()
	c.setDisk(0, (base.table[0]+1)%8)
	if base.table[0] != c.table[0] {
		t.Fatal("clone does not share the table")
	}
}
