package cluster

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"decluster/internal/grid"
	"decluster/internal/serve"
)

// legPlan is one leg of a scatter: the decomposition pieces it answers,
// their rects as its request carries them, and the members that may
// answer it, its lead first. A one-piece leg rotates through its shard's
// holders as runSub always has; a merged leg names only its lead, the
// one holder of all its pieces it was planned for.
type legPlan struct {
	first   int         // its first slot in the gathered outcomes
	subs    []SubQuery  // the pieces it answers
	rects   []grid.Rect // their rects, in the same order
	holders []int       // member IDs, lead first
}

// merged reports whether the leg carries more than one piece.
func (l *legPlan) merged() bool { return len(l.subs) > 1 }

// label names the leg in spans and errors: "<span> <shard> <rect>" for
// one piece, "<span> <shards> on member <lead>" for a merged leg.
func (l *legPlan) label(span string) string {
	if !l.merged() {
		return fmt.Sprintf("%s %d %v", span, l.subs[0].Shard, l.subs[0].Rect)
	}
	shards := make([]int, len(l.subs))
	for i, sq := range l.subs {
		shards[i] = sq.Shard
	}
	return fmt.Sprintf("%s %v on member %d", span, shards, l.holders[0])
}

// planShards plans one leg per piece, its holders the shard's members,
// primary first: a search's legs, each answering its piece's records.
func planShards(subs []SubQuery, sm *ShardMap) []legPlan {
	legs, rects := make([]legPlan, len(subs)), make([]grid.Rect, len(subs))
	for i, sq := range subs {
		rects[i] = sq.Rect
		legs[i] = legPlan{first: i, subs: subs[i : i+1], rects: rects[i : i+1], holders: sm.ShardMembers(sq.Shard)}
	}
	return legs
}

// planCover plans an aggregate's legs: one per holder of the fewest that
// cover its pieces, each carrying every piece it answers. turn rotates
// the choice among equally small covers, so members share the leads.
//
// A piece rides a merged leg only when nothing it would do alone is
// lost: a holder may answer it there when Breakers.Leads says the holder
// leads a first attempt (breaker allowing, in good standing) and, leading
// it, Breakers.Backup would arm no timed hedge — a merged leg races no
// backup. A piece whose own first attempt would hedge, or that no holder
// leads, keeps its own leg, planned as planShards plans it, so hedged
// aggregates and R = 1 maps run as searches do. A covering holder that
// answers one piece leads that piece's own leg, its shard's other
// holders behind it. A cover search that finds no cover within its
// budget plans every piece its own leg, as planShards does.
func planCover(subs []SubQuery, sm *ShardMap, brk *serve.Breakers, hedgeAfter time.Duration, turn int) []legPlan {
	n := len(subs)
	holders, elig := make([][]int, n), make([][]int, n)
	for i, sq := range subs {
		hs := sm.ShardMembers(sq.Shard)
		holders[i] = hs
		lead := slices.IndexFunc(hs, brk.Leads)
		if lead < 0 {
			continue
		}
		if _, delay := brk.Backup(hs, hs[lead], hedgeAfter); delay > 0 {
			continue
		}
		for _, h := range hs {
			if !brk.Leads(h) {
				continue
			}
			if _, delay := brk.Backup(hs, h, hedgeAfter); delay == 0 {
				elig[i] = append(elig[i], h)
			}
		}
	}
	chosen, assign := smallestCover(elig, turn)
	if assign == nil {
		return planShards(subs, sm)
	}

	// Lay the pieces out leg by leg: own legs first, in decomposition
	// order, then each covering holder's pieces, up to maxRequestRects a
	// leg.
	order, rects := make([]SubQuery, 0, n), make([]grid.Rect, 0, n)
	var legs []legPlan
	add := func(idx []int, lead int) {
		l := legPlan{first: len(order)}
		for _, i := range idx {
			order, rects = append(order, subs[i]), append(rects, subs[i].Rect)
		}
		l.subs, l.rects = order[l.first:], rects[l.first:]
		hs := holders[idx[0]]
		switch {
		case lead < 0:
			l.holders = hs
		case len(idx) == 1:
			l.holders = leadFirst(hs, lead)
		default:
			j := slices.Index(hs, lead)
			l.holders = hs[j : j+1]
		}
		legs = append(legs, l)
	}
	for i, h := range assign {
		if h < 0 {
			add([]int{i}, -1)
		}
	}
	for _, h := range chosen {
		var idx []int
		for i, a := range assign {
			if a == h {
				idx = append(idx, i)
			}
		}
		for len(idx) > 0 {
			m := min(len(idx), maxRequestRects)
			add(idx[:m], h)
			idx = idx[m:]
		}
	}
	return legs
}

// leadFirst rotates hs, in place, to start at lead.
func leadFirst(hs []int, lead int) []int {
	if j := slices.Index(hs, lead); j > 0 {
		slices.Reverse(hs[:j])
		slices.Reverse(hs[j:])
		slices.Reverse(hs)
	}
	return hs
}

// coverBudget bounds the cover search, in holder subsets tried: every
// subset of up to 12 holders fits (2¹² − 1 of them), so over up to 12
// eligible holders the cover found is always a minimum. Past the budget
// an aggregate sends one leg per piece, as a search does.
const coverBudget = 1 << 12

// smallestCover finds the fewest holders such that every piece with an
// eligible holder has one among them. It tries subsets of the distinct
// eligible holders smallest first, each size in lexicographic order of
// the holders' places in ascending member order rotated by turn, so
// equally small covers take turns from call to call. It returns the
// holders chosen, in rotated order, and per piece the first of them
// eligible for it (-1 for a piece with none); nil when there is no
// eligible holder, more than 64 of them, or no cover within coverBudget
// subsets.
func smallestCover(elig [][]int, turn int) (chosen, assign []int) {
	var hs []int
	for _, e := range elig {
		hs = append(hs, e...)
	}
	slices.Sort(hs)
	if hs = slices.Compact(hs); len(hs) == 0 || len(hs) > 64 {
		return nil, nil
	}
	hs = leadFirst(hs, hs[turn%len(hs)])
	masks := make([]uint64, len(elig)) // piece → its eligible holders' places
	for i, e := range elig {
		for _, h := range e {
			masks[i] |= 1 << slices.Index(hs, h)
		}
	}
	places, tried := make([]int, 0, len(hs)), 0
	for size := 1; size <= len(hs); size++ {
		places = places[:size]
		for i := range places {
			places[i] = i
		}
		for {
			if tried++; tried > coverBudget {
				return nil, nil
			}
			var set uint64
			for _, j := range places {
				set |= 1 << j
			}
			if !slices.ContainsFunc(masks, func(m uint64) bool { return m != 0 && m&set == 0 }) {
				chosen = make([]int, size)
				for k, j := range places {
					chosen[k] = hs[j]
				}
				assign = make([]int, len(elig))
				for i, m := range masks {
					assign[i] = -1
					if m != 0 {
						assign[i] = hs[bits.TrailingZeros64(m&set)]
					}
				}
				return chosen, assign
			}
			// The next subset of this size: advance the last place that
			// can move, and set the places after it right behind it.
			i := size - 1
			for i >= 0 && places[i] == len(hs)-size+i {
				i--
			}
			if i < 0 {
				break
			}
			places[i]++
			for j := i + 1; j < size; j++ {
				places[j] = places[j-1] + 1
			}
		}
	}
	return nil, nil
}
