package sfc

import "testing"

// FuzzHilbertRoundTrip drives HilbertIndex/HilbertCoords with fuzzed
// curve shapes and positions.
func FuzzHilbertRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint32(7))
	f.Add(uint8(3), uint8(3), uint32(100))
	f.Add(uint8(1), uint8(8), uint32(255))
	f.Fuzz(func(t *testing.T, nRaw, bRaw uint8, pick uint32) {
		n := int(nRaw%5) + 1
		b := int(bRaw%5) + 1
		idx := int64(pick) % (1 << uint(n*b))
		coords, err := HilbertCoords(idx, n, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range coords {
			if v < 0 || v >= 1<<uint(b) {
				t.Fatalf("HilbertCoords(%d)[%d] = %d out of range", idx, i, v)
			}
		}
		back, err := HilbertIndex(coords, b)
		if err != nil {
			t.Fatal(err)
		}
		if back != idx {
			t.Fatalf("round trip %d → %v → %d (n=%d b=%d)", idx, coords, back, n, b)
		}
	})
}
