package alloc

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decluster/internal/grid"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from this run's output")

// TestMethodTablesGolden pins the bucket→disk table of every registered
// method, by SHA-256, on four grids and five disk counts. The last disk
// count equals the grid's bucket count, so each rank-dealt method's table
// is its rank table itself. A combination Build rejects is pinned as
// "rejected".
func TestMethodTablesGolden(t *testing.T) {
	var out strings.Builder
	for _, dims := range [][]int{{16, 16}, {12, 10}, {4, 4, 4}, {2, 2, 2}} {
		g := grid.MustNew(dims...)
		for _, name := range Names() {
			for _, m := range []int{3, 4, 7, 8, g.Buckets()} {
				meth, err := Build(name, g, m)
				if err != nil {
					fmt.Fprintf(&out, "%v %s M=%d rejected\n", g, name, m)
					continue
				}
				var b strings.Builder
				for _, d := range Table(meth) {
					fmt.Fprintf(&b, "%d,", d)
				}
				fmt.Fprintf(&out, "%v %s M=%d %x\n", g, name, m, sha256.Sum256([]byte(b.String())))
			}
		}
	}
	got := out.String()
	path := filepath.Join("testdata", "method_tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("method tables changed (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}
