package batch

// Plan is the deduped read plan of one batch group: every distinct
// bucket any member query demands, read once, fanned out to every
// member that covers it. Building a plan is pure bookkeeping — no I/O
// — which is what lets the fuzz target check its invariants exhaustively.
type Plan struct {
	// Queries holds each member's demanded buckets as given. Repeats
	// within one member are folded — a query needs a bucket once.
	Queries [][]int
	// Buckets lists the distinct buckets in first-demand order: the
	// order in which scanning members 0..n-1, bucket lists in order,
	// first encounters them.
	Buckets []int
	// Covers maps each distinct bucket to the member indices demanding
	// it, in member order, each member at most once.
	Covers map[int][]int
	// Demand is the total logical demand: Σ over members of their
	// distinct bucket count.
	Demand int
}

// BuildPlan folds the members' bucket lists into a deduped plan.
func BuildPlan(queries [][]int) *Plan {
	p := &Plan{Queries: queries, Covers: make(map[int][]int)}
	for qi, bs := range queries {
		for _, b := range bs {
			covers := p.Covers[b]
			if n := len(covers); n > 0 && covers[n-1] == qi {
				continue // repeat within the same member
			}
			if len(covers) == 0 {
				p.Buckets = append(p.Buckets, b)
			}
			p.Covers[b] = append(covers, qi)
			p.Demand++
		}
	}
	return p
}

// Saved is the reads dedup eliminates: logical demand minus the
// physical reads a full dispatch performs.
func (p *Plan) Saved() int { return p.Demand - len(p.Buckets) }
