package alloc

import (
	"slices"
	"testing"
	"testing/quick"

	"decluster/internal/grid"
)

func TestBuildKnownNames(t *testing.T) {
	g := grid.MustNew(16, 16)
	for _, name := range []string{"DM", "CMD", "GDM", "FX", "ExFX", "FX*", "ECC", "HCAM", "Random"} {
		m, err := Build(name, g, 8)
		if err != nil {
			t.Errorf("Build(%q) error: %v", name, err)
			continue
		}
		if m.Disks() != 8 {
			t.Errorf("Build(%q).Disks() = %d", name, m.Disks())
		}
	}
}

func TestBuildCaseInsensitive(t *testing.T) {
	g := grid.MustNew(16, 16)
	m, err := Build("hcam", g, 4)
	if err != nil || m.Name() != "HCAM" {
		t.Fatalf("Build(hcam) = %v, %v", m, err)
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nope", grid.MustNew(4, 4), 4); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestBuildBDMNeedsBinaryGrid(t *testing.T) {
	if _, err := Build("BDM", grid.MustNew(4, 4), 4); err == nil {
		t.Fatal("BDM on non-binary grid accepted")
	}
	if _, err := Build("BDM", grid.MustNew(2, 2, 2), 4); err != nil {
		t.Fatalf("BDM on binary grid rejected: %v", err)
	}
}

func TestBuildCMDAliasesDM(t *testing.T) {
	g := grid.MustNew(8, 8)
	dm, _ := Build("DM", g, 4)
	cmd, _ := Build("CMD", g, 4)
	g.Each(func(c grid.Coord) bool {
		if dm.DiskOf(c) != cmd.DiskOf(c) {
			t.Fatalf("DM and CMD diverge at %v", c)
		}
		return true
	})
}

func TestNamesSortedComplete(t *testing.T) {
	names := Names()
	if len(names) != len(builders) {
		t.Fatalf("Names() has %d entries, registry has %d", len(names), len(builders))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestPaperSetFullOnPow2(t *testing.T) {
	g := grid.MustNew(64, 64)
	set := PaperSet(g, 16)
	want := []string{"DM", "FX", "ECC", "HCAM"}
	if len(set) != len(want) {
		t.Fatalf("PaperSet has %d methods, want %d", len(set), len(want))
	}
	for i, m := range set {
		if m.Name() != want[i] {
			t.Errorf("PaperSet[%d] = %s, want %s", i, m.Name(), want[i])
		}
	}
}

func TestPaperSetECCAtAnyDiskCount(t *testing.T) {
	// ECC folds syndromes for non-power-of-two M, so the paper's disk
	// sweeps get ECC lines at every M on power-of-two grids.
	set := PaperSet(grid.MustNew(64, 64), 6)
	found := false
	for _, m := range set {
		if m.Name() == "ECC" {
			found = true
		}
	}
	if !found {
		t.Fatal("ECC missing at M=6 on a power-of-two grid")
	}
}

func TestPaperSetSkipsECCOnNonPow2Grid(t *testing.T) {
	set := PaperSet(grid.MustNew(60, 60), 8)
	for _, m := range set {
		if m.Name() == "ECC" {
			t.Fatal("ECC present despite non-power-of-two grid")
		}
	}
	if len(set) != 3 {
		t.Fatalf("PaperSet has %d methods, want 3", len(set))
	}
}

// A disk sweep's method sets are the per-M paper sets, with one Hilbert
// rank table behind every HCAM of the call.
func TestPaperSetsMatchPaperSet(t *testing.T) {
	for _, g := range []*grid.Grid{grid.MustNew(16, 16), grid.MustNew(12, 10)} {
		disks := []int{2, 6, 16, 24}
		sets := PaperSets(g, disks)
		if len(sets) != len(disks) {
			t.Fatalf("%d sets for %d disk counts", len(sets), len(disks))
		}
		var ranks *int
		for i, m := range disks {
			want := PaperSet(g, m)
			if len(sets[i]) != len(want) {
				t.Fatalf("%v M=%d: %d methods, want %d", g, m, len(sets[i]), len(want))
			}
			for j, mm := range sets[i] {
				if mm.Name() != want[j].Name() || mm.Disks() != m || !slices.Equal(Table(mm), Table(want[j])) {
					t.Fatalf("%v M=%d: method %d (%s) differs from PaperSet", g, m, j, mm.Name())
				}
				if h, ok := mm.(*HCAM); ok {
					if ranks == nil {
						ranks = &h.ranks[0]
					} else if ranks != &h.ranks[0] {
						t.Fatalf("%v M=%d: HCAM has its own rank table", g, m)
					}
				}
			}
		}
		if ranks == nil {
			t.Fatalf("%v: no HCAM in any set", g)
		}
	}
}

// Property: every registered method returns disks in range for every
// bucket of a shared power-of-two grid.
func TestQuickAllMethodsInRange(t *testing.T) {
	g := grid.MustNew(16, 16)
	var methods []Method
	for _, name := range []string{"DM", "GDM", "FX", "ExFX", "ECC", "HCAM", "Random"} {
		m, err := Build(name, g, 8)
		if err != nil {
			t.Fatal(err)
		}
		methods = append(methods, m)
	}
	f := func(a, b uint) bool {
		c := grid.Coord{int(a % 16), int(b % 16)}
		for _, m := range methods {
			d := m.DiskOf(c)
			if d < 0 || d >= 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all methods are deterministic — repeated lookups agree.
func TestQuickDeterminism(t *testing.T) {
	g := grid.MustNew(16, 16)
	h1, _ := Build("HCAM", g, 5)
	h2, _ := Build("HCAM", g, 5)
	f := func(a, b uint) bool {
		c := grid.Coord{int(a % 16), int(b % 16)}
		return h1.DiskOf(c) == h2.DiskOf(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
