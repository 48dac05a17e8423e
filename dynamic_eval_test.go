package decluster_test

import (
	"testing"

	"decluster"
)

// FuzzDynamicEvaluatorMaintenance is the end-to-end differential proof
// of delta maintenance: an evaluator attached to a live dynamic grid
// file — fed only the observer's CellMoved/LayerInserted stream as
// inserts trigger splits and directory doublings — must hold summed-area
// tables bit-identical to a from-scratch rebuild over the file's
// current directory at every checkpoint. This closes the gap the
// cost-package fuzz leaves open: there the move stream is synthetic;
// here it is whatever the real split machinery emits, in its real
// order, interleaved with reshapes.
func FuzzDynamicEvaluatorMaintenance(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(3), int64(1), uint16(300))
	f.Add(uint8(1), uint8(2), uint8(1), int64(7), uint16(120))
	f.Add(uint8(3), uint8(7), uint8(6), int64(42), uint16(500))
	f.Fuzz(func(t *testing.T, k, disks, capacity uint8, seed int64, n uint16) {
		kk := int(k)%3 + 1
		nd := int(disks)%8 + 1
		cap := int(capacity)%8 + 2
		file, err := decluster.NewDynamicGridFile(decluster.DynamicConfig{
			K: kk, Disks: nd, Capacity: cap,
		})
		if err != nil {
			t.Fatal(err)
		}
		me, err := decluster.NewDynamicEvaluator(file, "dyn", decluster.KernelPrefix, 0)
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			pe := me.Prefix()
			if pe == nil {
				t.Fatalf("%s: forced prefix kernel degraded to walk", when)
			}
			rebuilt, err := decluster.NewPrefixEvaluator(file.AsMethod("rebuild"))
			if err != nil {
				t.Fatalf("%s: rebuild: %v", when, err)
			}
			if !pe.TablesEqual(rebuilt) {
				t.Fatalf("%s: maintained tables diverge from rebuild (%d buckets, %d splits, %d doublings)",
					when, file.NumBuckets(), file.Splits(), file.DirectoryDoublings())
			}
		}
		recs := decluster.UniformRecords{K: kk, Seed: seed}.Generate(int(n)%800 + 1)
		for i, rec := range recs {
			if err := file.Insert(rec); err != nil {
				t.Fatal(err)
			}
			if (i+1)%100 == 0 {
				check("mid-stream")
			}
		}
		check("end of stream")
	})
}

// TestDynamicEvaluatorNeverRebuilds pins "maintain, never rebuild" end
// to end: across every doubling and split of a growing file the live
// prefix kernel is the one built at attach time — updated in place,
// not re-tiled — and still equals a from-scratch rebuild.
func TestDynamicEvaluatorNeverRebuilds(t *testing.T) {
	file, err := decluster.NewDynamicGridFile(decluster.DynamicConfig{K: 2, Disks: 5, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	me, err := decluster.NewDynamicEvaluator(file, "dyn", decluster.KernelAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	attached := me.Prefix()
	if attached == nil {
		t.Fatal("auto kernel on a 1×1 directory is not the prefix kernel")
	}
	for i, rec := range (decluster.UniformRecords{K: 2, Seed: 3}).Generate(2000) {
		if err := file.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if me.Prefix() != attached {
			t.Fatalf("insert %d (%d doublings): the live kernel was replaced", i, file.DirectoryDoublings())
		}
	}
	if file.DirectoryDoublings() == 0 || file.Splits() == 0 {
		t.Fatal("fixture never grew")
	}
	rebuilt, err := decluster.NewPrefixEvaluator(file.AsMethod("rebuild"))
	if err != nil {
		t.Fatal(err)
	}
	if !attached.TablesEqual(rebuilt) {
		t.Fatal("in-place maintained tables diverge from rebuild")
	}
}
