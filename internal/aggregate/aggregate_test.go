package aggregate

import (
	"testing"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
)

// TestAggregateZeroAllocs gates the aggregate kernel: a query over any
// rectangle, for every op, walks the per-bucket summary without
// allocating — on grids of up to eight attributes, where the bucket
// walk needs no scratch.
func TestAggregateZeroAllocs(t *testing.T) {
	for _, dims := range [][]int{{64, 64}, {6, 5, 4}} {
		g := grid.MustNew(dims...)
		m, err := alloc.NewHCAM(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		f, err := gridfile.New(gridfile.Config{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.InsertAll(datagen.Uniform{K: g.K(), Seed: 3}.Generate(5000)); err != nil {
			t.Fatal(err)
		}
		ix, err := BuildAggregateIndex(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []AggregateOp{OpCount, OpSum, OpMin, OpMax} {
			q := AggregateQuery{Rect: g.FullRect(), Op: op, Attr: g.K() - 1}
			if avg := testing.AllocsPerRun(100, func() {
				if res, err := ix.Aggregate(q); err != nil || res.Count != int64(f.Len()) {
					t.Fatalf("grid %v %v: %+v, %v", g, op, res, err)
				}
			}); avg > 0 {
				t.Errorf("grid %v: %v Aggregate allocates %.1f allocs/op, want 0", g, op, avg)
			}
		}
	}
}
