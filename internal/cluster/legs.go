package cluster

import (
	"fmt"
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
// holders behind it. A cover search that runs out of budget plans every
// piece its own leg, as planShards does.
func planCover(subs []SubQuery, sm *ShardMap, brk *serve.Breakers, hedgeAfter time.Duration, turn int) []legPlan {
	n := len(subs)
	c := coverSearch{members: sm.MaxMember() + 1, turn: turn, elig: make([][]int, n)}
	holders := make([][]int, n)
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
				c.elig[i] = append(c.elig[i], h)
			}
		}
	}
	assign := c.solve()
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
	for _, h := range c.chosen {
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

// coverBudget bounds the exact cover search, in search steps. Covers
// over the few shards a rect meets in a small cluster take tens; past
// the budget an aggregate sends one leg per piece, as a search does.
const coverBudget = 1 << 12

// coverSearch finds the fewest holders such that every piece in the
// problem has an eligible holder among them: minimum set cover, exact by
// iterative deepening with a counting bound. Greedy alone is not enough:
// on an 8-node map with replicas at stride 3 or 5 it can take one holder
// more than needed.
type coverSearch struct {
	elig    [][]int // piece → the holders that may answer it; nil: not in the problem
	all     []int   // every holder eligible for some piece
	members int     // member IDs are below it
	turn    int     // the rotation among equally small covers
	covered []int   // piece → chosen holders eligible for it
	left    int     // pieces in the problem not yet covered
	chosen  []int   // the holders chosen, in order
	steps   int
}

// solve returns, per piece, the chosen holder that answers it (-1 for a
// piece outside the problem), or nil when the search ran out of budget.
// The search branches on the uncovered piece with the fewest holders,
// trying holders in rotated member order; ties between pieces go to the
// rotated piece order. Rotating both by turn walks the equally small
// covers from call to call.
func (c *coverSearch) solve() []int {
	n := len(c.elig)
	c.covered = make([]int, n)
	for _, hs := range c.elig {
		if len(hs) > 0 {
			c.left++
		}
		slices.SortFunc(hs, func(a, b int) int { return c.rank(a) - c.rank(b) })
		for _, h := range hs {
			if !slices.Contains(c.all, h) {
				c.all = append(c.all, h)
			}
		}
	}
	found := c.left == 0
	for limit := 1; !found && c.steps < coverBudget; limit++ {
		found = c.deepen(limit)
	}
	if !found {
		return nil
	}
	assign := make([]int, n)
	for i, hs := range c.elig {
		assign[i] = -1
		for _, h := range c.chosen {
			if slices.Contains(hs, h) {
				assign[i] = h
				break
			}
		}
	}
	return assign
}

// rank is member h's place in the rotated member order.
func (c *coverSearch) rank(h int) int { return ((h-c.turn)%c.members + c.members) % c.members }

// deepen looks for a cover of at most limit holders extending the
// chosen ones, leaving it chosen when it finds one.
func (c *coverSearch) deepen(limit int) bool {
	if c.left == 0 {
		return true
	}
	if c.steps++; c.steps > coverBudget || len(c.chosen) >= limit {
		return false
	}
	// No holder covers more than most of what is left: fewer holders than
	// left/most cannot finish.
	most := 0
	for _, h := range c.all {
		most = max(most, c.gain(h))
	}
	if len(c.chosen)+(c.left+most-1)/most > limit {
		return false
	}
	p := c.branchPiece()
	for _, h := range c.elig[p] {
		c.take(h, 1)
		if c.deepen(limit) {
			return true
		}
		c.take(h, -1)
	}
	return false
}

// gain counts the uncovered pieces h is eligible for.
func (c *coverSearch) gain(h int) int {
	g := 0
	for i, hs := range c.elig {
		if c.covered[i] == 0 && slices.Contains(hs, h) {
			g++
		}
	}
	return g
}

// branchPiece picks the uncovered piece with the fewest eligible
// holders, ties in rotated piece order.
func (c *coverSearch) branchPiece() int {
	n := len(c.elig)
	best := -1
	for off := range n {
		i := (c.turn%n + off) % n
		if hs := c.elig[i]; len(hs) > 0 && c.covered[i] == 0 && (best < 0 || len(hs) < len(c.elig[best])) {
			best = i
		}
	}
	return best
}

// take chooses h (d = 1) or drops it again (d = -1), the last chosen.
func (c *coverSearch) take(h, d int) {
	for i, hs := range c.elig {
		if !slices.Contains(hs, h) {
			continue
		}
		was := c.covered[i]
		c.covered[i] += d
		switch {
		case was == 0:
			c.left--
		case c.covered[i] == 0:
			c.left++
		}
	}
	if d > 0 {
		c.chosen = append(c.chosen, h)
	} else {
		c.chosen = c.chosen[:len(c.chosen)-1]
	}
}
