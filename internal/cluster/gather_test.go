package cluster

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"decluster/internal/datagen"
)

// materialisedMerge is the gather the router used to run, kept as the
// oracle: decode every answered page whole, then stable-sort all records
// by ID — so equal IDs stay in leg, then page-position order.
func materialisedMerge(t *testing.T, bodies [][]byte) []datagen.Record {
	t.Helper()
	var all []datagen.Record
	for _, body := range bodies {
		if body == nil {
			continue
		}
		var p recordPage
		if err := p.decode(frameContentType, body); err != nil {
			t.Fatal(err)
		}
		all = append(all, p.Records...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// TestGatherMatchesMaterialisedMerge: over seeded random legs — IDs
// duplicated across and within legs, negative, past 2³², empty legs, legs
// of different k, a failed leg — gathering in place yields bit for bit
// what materialising every page and sorting does, with every record's
// Values capped at its own.
func TestGatherMatchesMaterialisedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ids := []int{0, 1, 2, 3, 255, 256, 65535, 65536, -1, -2, -256, 1 << 32, 1<<32 + 1, -(1 << 40), math.MinInt, math.MaxInt}
	for round := 0; round < 300; round++ {
		legs := 1 + rng.Intn(6)
		failed := -1
		if rng.Intn(3) == 0 {
			failed = rng.Intn(legs)
		}
		bodies := make([][]byte, legs)
		outs := make([]subOutcome[pageLeg], legs)
		for leg := range outs {
			if leg == failed {
				outs[leg].err = errors.New("leg lost")
				continue
			}
			n, k := rng.Intn(200), 1+rng.Intn(3)
			if rng.Intn(4) == 0 {
				n = 0
			}
			page := randomPage(rng, n, k)
			for i := range page.Records {
				switch rng.Intn(3) {
				case 0: // a small pool: duplicates across and within legs
					page.Records[i].ID = ids[rng.Intn(len(ids))]
				case 1: // dense, as generated datasets are
					page.Records[i].ID = rng.Intn(1000) - 100
				}
			}
			bodies[leg] = framePage(t, page)
			view, err := parseFrame(frameContentType, bodies[leg])
			if err != nil {
				t.Fatal(err)
			}
			outs[leg].resp = &pageLeg{frame: view}
		}
		got, want := gather(outs), materialisedMerge(t, bodies)
		if len(got) != len(want) {
			t.Fatalf("round %d: gathered %d records, oracle %d", round, len(got), len(want))
		}
		for i := range want {
			if !sameRecord(got[i], want[i]) || cap(got[i].Values) != len(got[i].Values) {
				t.Fatalf("round %d: record %d = %+v (cap %d), oracle %+v", round, i, got[i], cap(got[i].Values), want[i])
			}
		}
	}
}

// sameRecord reports whether a and b carry the same ID and the same
// value bit patterns (NaN payloads and signed zeros included).
func sameRecord(a, b datagen.Record) bool {
	if a.ID != b.ID || len(a.Values) != len(b.Values) {
		return false
	}
	for j, v := range a.Values {
		if math.Float64bits(v) != math.Float64bits(b.Values[j]) {
			return false
		}
	}
	return true
}
