package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/replica"
)

// A rectangle is a bucket set: RangeSearch(r) and RangeSearchBuckets
// over r's row-major bucket numbers go through the one route, so under
// every health condition they must agree on the records, the per-disk
// read counts, the degraded-routing accounting and — when the query is
// unanswerable — the typed error's contents.
func TestRectAndBucketSetRouteAlike(t *testing.T) {
	const disks = 4
	f := newLoadedFile(t, disks, 2000)
	g := f.Grid()
	offset, err := replica.NewOffset(f.Method(), 2)
	if err != nil {
		t.Fatal(err)
	}
	failed := func(d ...int) *fault.Injector {
		inj, err := fault.New(fault.Config{Seed: 1, FailDisks: d})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	avoid := func(d ...int) Option { return WithAvoid(func() []int { return d }) }

	for _, tc := range []struct {
		name        string
		opts        []Option
		unavailable bool
		degraded    bool
		rerouted    bool  // some bucket served off its primary
		idle        []int // disks that must read nothing
	}{
		{name: "healthy"},
		{name: "one disk failed, offset failover",
			opts: []Option{WithFaults(failed(1)), WithFailover(offset)}, degraded: true, rerouted: true, idle: []int{1}},
		{name: "one disk failed, no failover",
			opts: []Option{WithFaults(failed(1))}, unavailable: true},
		{name: "avoid a live disk",
			opts: []Option{WithFailover(offset), avoid(2)}, rerouted: true, idle: []int{2}},
		{name: "avoid both replicas of some bucket", // disks 0 and 2 pair up under offset 2
			opts: []Option{WithFailover(offset), avoid(0, 2)}},
		{name: "avoid both replicas, one disk failed",
			opts: []Option{WithFaults(failed(1)), WithFailover(offset), avoid(0, 2)}, degraded: true, rerouted: true, idle: []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(f, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, r := range []grid.Rect{
				g.FullRect(),
				g.MustRect(grid.Coord{2, 3}, grid.Coord{9, 12}),
				g.MustRect(grid.Coord{5, 0}, grid.Coord{5, 15}),
			} {
				byRect, rerr := e.RangeSearch(ctx, r)
				bySet, serr := e.RangeSearchBuckets(ctx, g.AppendRect(nil, r))
				if tc.unavailable {
					var ru, su *fault.UnavailableError
					if !errors.As(rerr, &ru) || !errors.As(serr, &su) {
						t.Fatalf("rect %v: errors %v / %v, want *fault.UnavailableError from both", r, rerr, serr)
					}
					if !slices.Equal(ru.Buckets, su.Buckets) || !slices.Equal(ru.FailedDisks, su.FailedDisks) {
						t.Errorf("rect %v: unavailable %v on %v by rect, %v on %v by set",
							r, ru.Buckets, ru.FailedDisks, su.Buckets, su.FailedDisks)
					}
					if len(ru.Buckets) == 0 || !slices.IsSorted(ru.Buckets) {
						t.Errorf("rect %v: unreachable buckets %v, want a non-empty ascending list", r, ru.Buckets)
					}
					continue
				}
				if rerr != nil || serr != nil {
					t.Fatalf("rect %v: errors %v / %v", r, rerr, serr)
				}
				if !reflect.DeepEqual(byRect.Records, bySet.Records) {
					t.Errorf("rect %v: %d records by rect, %d by set (or order differs)", r, len(byRect.Records), len(bySet.Records))
				}
				if !slices.Equal(byRect.RecordsPerBucket, bySet.RecordsPerBucket) {
					t.Errorf("rect %v: RecordsPerBucket %v by rect, %v by set", r, byRect.RecordsPerBucket, bySet.RecordsPerBucket)
				}
				if !slices.Equal(byRect.BucketsPerDisk, bySet.BucketsPerDisk) {
					t.Errorf("rect %v: BucketsPerDisk %v by rect, %v by set", r, byRect.BucketsPerDisk, bySet.BucketsPerDisk)
				}
				if byRect.Rerouted != bySet.Rerouted || byRect.Degraded != bySet.Degraded {
					t.Errorf("rect %v: rerouted/degraded %d/%v by rect, %d/%v by set",
						r, byRect.Rerouted, byRect.Degraded, bySet.Rerouted, bySet.Degraded)
				}
				if byRect.Degraded != tc.degraded {
					t.Errorf("rect %v: Degraded = %v, want %v", r, byRect.Degraded, tc.degraded)
				}
				if r.Volume() == g.Buckets() && (byRect.Rerouted > 0) != tc.rerouted {
					t.Errorf("full grid: Rerouted = %d, want rerouting %v", byRect.Rerouted, tc.rerouted)
				}
				for _, d := range tc.idle {
					if byRect.BucketsPerDisk[d] != 0 {
						t.Errorf("rect %v: disk %d read %d buckets, want none", r, d, byRect.BucketsPerDisk[d])
					}
				}
			}
		})
	}
}

// RangeSearchBuckets validates against marks kept on the pooled query
// state and, for a set that is not ascending, ranks it there too. Neither
// may leak from one query into the next: a repeat or an out-of-range
// bucket is refused after clean queries have used the state, a refused
// set leaves no mark that would make a later clean set look repeated,
// and a shuffled set answers exactly like its sorted self.
func TestBucketSetValidationOnPooledState(t *testing.T) {
	f := newLoadedFile(t, 4, 2000)
	g := f.Grid()
	e, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sorted := g.AppendRect(nil, g.MustRect(grid.Coord{2, 3}, grid.Coord{9, 12}))
	want, err := e.RangeSearchBuckets(ctx, sorted)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := slices.Clone(sorted)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	last := len(sorted) - 1

	for round := 0; round < 3; round++ {
		for _, tc := range []struct {
			name    string
			buckets []int
			refusal string // "" = answered like sorted
		}{
			{"sorted", sorted, ""},
			{"repeat at the end", append(slices.Clone(sorted), sorted[0]), fmt.Sprintf("exec: duplicate bucket %d in read set", sorted[0])},
			{"sorted again", sorted, ""},
			{"shuffled", shuffled, ""},
			{"repeat in a shuffled set", append(slices.Clone(shuffled), shuffled[last]), fmt.Sprintf("exec: duplicate bucket %d in read set", shuffled[last])},
			{"past the grid", append(slices.Clone(sorted), g.Buckets()), fmt.Sprintf("exec: bucket %d outside [0,%d)", g.Buckets(), g.Buckets())},
			{"negative", append([]int{-1}, sorted...), fmt.Sprintf("exec: bucket -1 outside [0,%d)", g.Buckets())},
			{"shuffled again", shuffled, ""},
			{"sorted after shuffled", sorted, ""},
		} {
			got, err := e.RangeSearchBuckets(ctx, tc.buckets)
			if tc.refusal != "" {
				if err == nil || err.Error() != tc.refusal {
					t.Fatalf("round %d, %s: err = %v, want %q", round, tc.name, err, tc.refusal)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, tc.name, err)
			}
			if !reflect.DeepEqual(got.Records, want.Records) || !slices.Equal(got.BucketsPerDisk, want.BucketsPerDisk) ||
				!slices.Equal(got.RecordsPerBucket, want.RecordsPerBucket) {
				t.Fatalf("round %d, %s: %d records, per disk %v, per bucket %v; the sorted set gave %d, %v, %v (or order differs)",
					round, tc.name, len(got.Records), got.BucketsPerDisk, got.RecordsPerBucket,
					len(want.Records), want.BucketsPerDisk, want.RecordsPerBucket)
			}
		}
	}
}
