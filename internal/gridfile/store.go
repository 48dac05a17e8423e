package gridfile

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"decluster/internal/datagen"
	"decluster/internal/grid"
)

// ErrCorrupt classifies checksum-mismatch read errors; concrete
// *CorruptError values match it under errors.Is.
var ErrCorrupt = errors.New("gridfile: page checksum mismatch")

// CorruptError reports that one stored page failed checksum
// verification on read.
type CorruptError struct {
	Disk   int
	Bucket int
	Page   int
}

// Error describes the mismatch.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("gridfile: checksum mismatch on disk %d bucket %d page %d", e.Disk, e.Bucket, e.Page)
}

// Is matches ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// pageChecksum hashes one page of records with FNV-1a 64: each record's
// ID followed by the raw bits of each attribute value. Any single-bit
// change to a stored value or ID changes the sum.
func pageChecksum(recs []datagen.Record) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range recs {
		putUint64(&buf, uint64(int64(r.ID)))
		h.Write(buf[:])
		for _, v := range r.Values {
			putUint64(&buf, math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func putUint64(buf *[8]byte, x uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(x >> (8 * i))
	}
}

// storedCopy is one disk's physical copy of a bucket: the record bytes
// plus the per-page checksums computed when the copy was written.
// Mutations (Corrupt, Repair) replace recs with a fresh slice rather
// than editing in place, so record slices handed to earlier readers
// never change under them.
type storedCopy struct {
	recs []datagen.Record
	sums []uint64
}

// Store is the checksummed physical layer under a grid file: each
// bucket materializes one copy per holder disk, every copy carries
// per-page FNV-1a checksums computed at write time, and reads verify
// the stored bytes against the stored sums. A copy whose bytes have
// rotted (Corrupt, or repair.SeedCorruption driving it) fails
// verification with a *CorruptError naming the exact page, which is
// what the repair package's scrubber and read-repair act on.
//
// The holder set of each bucket (which disks are supposed to carry a
// copy) is fixed at construction — typically primary + backup from a
// replica scheme. DropDisk models permanent media loss by discarding a
// disk's copies; MissingOn then names the rebuild work list, and
// AddCopy re-materializes copies as a rebuild engine streams them back.
// All methods are safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	g        *grid.Grid
	disks    int
	capacity int
	holders  [][]int               // bucket → holder disks, ascending, static
	copies   []map[int]*storedCopy // bucket → disk → copy
}

// NewStore materializes the checksummed physical copies of f. holders
// returns the disks that must carry a copy of each bucket (duplicates
// are collapsed); it is evaluated once per bucket at construction.
// Records are deep-cloned per copy, so the store shares no mutable
// state with f or with sibling copies.
func NewStore(f *File, holders func(b int) []int) (*Store, error) {
	if holders == nil {
		return nil, fmt.Errorf("gridfile: nil holders function")
	}
	s := &Store{
		g:        f.Grid(),
		disks:    f.Disks(),
		capacity: f.PageCapacity(),
		holders:  make([][]int, f.Grid().Buckets()),
		copies:   make([]map[int]*storedCopy, f.Grid().Buckets()),
	}
	for b := range s.copies {
		hs := holders(b)
		seen := make(map[int]bool, len(hs))
		for _, d := range hs {
			if d < 0 || d >= s.disks {
				return nil, fmt.Errorf("gridfile: holder disk %d of bucket %d outside [0,%d)", d, b, s.disks)
			}
			seen[d] = true
		}
		if len(seen) == 0 {
			return nil, fmt.Errorf("gridfile: bucket %d has no holder disks", b)
		}
		hl := make([]int, 0, len(seen))
		for d := range seen {
			hl = append(hl, d)
		}
		sort.Ints(hl)
		s.holders[b] = hl
		s.copies[b] = make(map[int]*storedCopy, len(hl))
		for _, d := range hl {
			s.copies[b][d] = newCopy(f.buckets[b], s.capacity)
		}
	}
	return s, nil
}

// newCopy deep-clones recs and computes its page checksums.
func newCopy(recs []datagen.Record, capacity int) *storedCopy {
	clone := cloneRecords(recs)
	return &storedCopy{recs: clone, sums: checksums(clone, capacity)}
}

// cloneRecords deep-clones recs in two allocations: one record array
// and one value slab, each record's Values a capped run of the slab.
func cloneRecords(recs []datagen.Record) []datagen.Record {
	n := 0
	for _, r := range recs {
		n += len(r.Values)
	}
	clone, slab := make([]datagen.Record, len(recs)), make([]float64, n)
	for i, r := range recs {
		clone[i].ID = r.ID
		if k := len(r.Values); k > 0 {
			clone[i].Values, slab = slab[:k:k], slab[k:]
			copy(clone[i].Values, r.Values)
		}
	}
	return clone
}

func checksums(recs []datagen.Record, capacity int) []uint64 {
	pages := (len(recs) + capacity - 1) / capacity
	sums := make([]uint64, pages)
	for p := 0; p < pages; p++ {
		sums[p] = pageChecksum(pageSlice(recs, capacity, p))
	}
	return sums
}

func pageSlice(recs []datagen.Record, capacity, page int) []datagen.Record {
	lo := page * capacity
	hi := lo + capacity
	if hi > len(recs) {
		hi = len(recs)
	}
	return recs[lo:hi]
}

// Grid returns the store's grid.
func (s *Store) Grid() *grid.Grid { return s.g }

// Disks returns the number of disks the store spans.
func (s *Store) Disks() int { return s.disks }

// PageCapacity returns the records-per-page setting.
func (s *Store) PageCapacity() int { return s.capacity }

// Holders returns the disks designated to carry bucket b, ascending.
// The designation is static; HasCopy reports which actually do.
func (s *Store) Holders(b int) []int {
	return append([]int(nil), s.holders[b]...)
}

// HasCopy reports whether disk d currently holds a copy of bucket b.
func (s *Store) HasCopy(d, b int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.copies[b][d]
	return ok
}

// BucketsOn returns the buckets disk d currently holds, ascending.
func (s *Store) BucketsOn(d int) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []int
	for b := range s.copies {
		if _, ok := s.copies[b][d]; ok {
			out = append(out, b)
		}
	}
	return out
}

// MissingOn returns the buckets disk d is designated to hold but
// currently doesn't, ascending — the rebuild work list after DropDisk.
func (s *Store) MissingOn(d int) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []int
	for b, hs := range s.holders {
		for _, h := range hs {
			if h != d {
				continue
			}
			if _, ok := s.copies[b][d]; !ok {
				out = append(out, b)
			}
		}
	}
	return out
}

// BucketPages returns the pages a full copy of bucket b occupies
// (computed from the designated copies; all copies of a bucket hold the
// same records when clean).
func (s *Store) BucketPages(b int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.copies[b] {
		return len(c.sums)
	}
	return 0
}

// ReadVerified reads disk d's copy of bucket b, recomputing every page
// checksum against the stored sums. On a mismatch it returns a
// *CorruptError naming the first bad page (errors.Is(err, ErrCorrupt)).
// A missing copy (dropped disk, not yet rebuilt) is reported as a
// distinct error. The returned slice is the stored one — callers must
// not mutate it; Store mutations are copy-on-write so it stays stable.
func (s *Store) ReadVerified(d, b int) ([]datagen.Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.copies[b][d]
	if !ok {
		return nil, fmt.Errorf("gridfile: disk %d holds no copy of bucket %d", d, b)
	}
	for p := range c.sums {
		if pageChecksum(pageSlice(c.recs, s.capacity, p)) != c.sums[p] {
			return nil, &CorruptError{Disk: d, Bucket: b, Page: p}
		}
	}
	return c.recs, nil
}

// Corrupt flips bits in page `page` of disk d's copy of bucket b,
// leaving the stored checksum stale — the silent-corruption fault. The
// mutation is copy-on-write: readers holding the previous record slice
// are unaffected. It reports whether a copy existed to corrupt (pages
// out of range and empty pages corrupt nothing).
func (s *Store) Corrupt(d, b, page int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.copies[b][d]
	if !ok || page < 0 || page >= len(c.sums) {
		return false
	}
	recs := cloneRecords(c.recs)
	target := pageSlice(recs, s.capacity, page)
	if len(target) == 0 {
		return false
	}
	// Rot the first record of the page: flip value bits if it has
	// values, else flip the ID.
	if len(target[0].Values) > 0 {
		target[0].Values[0] = math.Float64frombits(math.Float64bits(target[0].Values[0]) ^ 0xdeadbeef)
	} else {
		target[0].ID ^= 0x5a5a
	}
	s.copies[b][d] = &storedCopy{recs: recs, sums: c.sums}
	return true
}

// Repair overwrites disk d's copy of bucket b with recs (deep-cloned)
// and recomputes its checksums — the scrubber/read-repair path writing
// back a clean replica.
func (s *Store) Repair(d, b int, recs []datagen.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.copies[b][d]; !ok {
		return // dropped disks take copies back via AddCopy
	}
	s.copies[b][d] = newCopy(recs, s.capacity)
}

// AddCopy materializes a copy of bucket b on disk d from recs
// (deep-cloned, freshly checksummed) — the rebuild engine streaming a
// reconstructed bucket onto the replacement disk. d must be a
// designated holder of b.
func (s *Store) AddCopy(d, b int, recs []datagen.Record) error {
	holder := false
	for _, h := range s.holders[b] {
		if h == d {
			holder = true
			break
		}
	}
	if !holder {
		return fmt.Errorf("gridfile: disk %d is not a designated holder of bucket %d", d, b)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.copies[b][d] = newCopy(recs, s.capacity)
	return nil
}

// DropDisk discards every copy disk d holds — permanent media loss. It
// returns the number of bucket copies lost. The disk stays a designated
// holder, so MissingOn(d) names exactly the dropped buckets until
// AddCopy restores them.
func (s *Store) DropDisk(d int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	lost := 0
	for b := range s.copies {
		if _, ok := s.copies[b][d]; ok {
			delete(s.copies[b], d)
			lost++
		}
	}
	return lost
}

// VerifyAll sweeps every stored copy and returns a *CorruptError per
// corrupt page found, ordered by (bucket, disk, page). An empty result
// means every stored page verifies clean.
func (s *Store) VerifyAll() []CorruptError {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var bad []CorruptError
	for b := range s.copies {
		disks := make([]int, 0, len(s.copies[b]))
		for d := range s.copies[b] {
			disks = append(disks, d)
		}
		sort.Ints(disks)
		for _, d := range disks {
			c := s.copies[b][d]
			for p := range c.sums {
				if pageChecksum(pageSlice(c.recs, s.capacity, p)) != c.sums[p] {
					bad = append(bad, CorruptError{Disk: d, Bucket: b, Page: p})
				}
			}
		}
	}
	return bad
}
