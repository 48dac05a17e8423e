package cluster

import "fmt"

// A MigrationPlan is the declarative half of an elastic membership
// change: the From and To shard maps (To at the next epoch), and the
// minimal set of bucket moves that carries the cluster from one to the
// other while every replica-placement invariant of the To map holds the
// moment it is installed. "Minimal" is exact at bucket granularity: no
// move copies a bucket its destination already holds under From, and
// the union of the moves is exactly the set of (bucket, destination)
// pairs the To map requires and From does not provide. The Migrator
// (migrate.go) is the imperative half.
type MigrationPlan struct {
	// From is the live map; To is the same cluster one epoch later.
	From, To *ShardMap
	// Kind is "join" or "leave".
	Kind string
	// Member is the joining member's fresh ID, or the leaving member's.
	Member int
	// Moves are the bucket copies, one per destination and donor set,
	// destinations in To-map node order.
	Moves []Move
}

// Move is the bucket set one destination member must copy from one
// donor set before the To map can serve.
type Move struct {
	// Dest is the destination's stable member ID.
	Dest int
	// Sources are the donor member IDs holding every bucket of the move
	// under From, From-primary first. The copier rotates through them.
	Sources []int
	// Buckets are the row-major bucket numbers to copy, ascending; they
	// all fall in one From-map shard, whatever shape they make.
	Buckets []int
}

// Buckets returns the total bucket count across all moves.
func (p *MigrationPlan) Buckets() int {
	total := 0
	for _, mv := range p.Moves {
		total += len(mv.Buckets)
	}
	return total
}

// String summarises the plan.
func (p *MigrationPlan) String() string {
	return fmt.Sprintf("%s member %d: epoch %d → %d, %d moves (%d buckets)",
		p.Kind, p.Member, p.From.Epoch(), p.To.Epoch(), len(p.Moves), p.Buckets())
}

// PlanJoin plans growing the cluster by one node: the To map re-tiles
// the grid across Nodes()+1 map slots with the same replica count and
// stride, the joiner gets the lowest unused member ID, and the moves
// carry every bucket a member will host under To but does not hold
// under From. It errors when the From geometry cannot grow (stride
// collisions, too few buckets per node).
func PlanJoin(from *ShardMap) (*MigrationPlan, error) {
	if from == nil {
		return nil, fmt.Errorf("cluster: nil From map")
	}
	joiner := from.MaxMember() + 1
	members := append(append([]int(nil), from.Members()...), joiner)
	to, err := newShardMapAt(from.Grid(), from.Nodes()+1, from.Replicas(), from.Stride(),
		from.Epoch()+1, members)
	if err != nil {
		return nil, fmt.Errorf("cluster: join to %d nodes: %w", from.Nodes()+1, err)
	}
	p := &MigrationPlan{From: from, To: to, Kind: "join", Member: joiner}
	p.Moves = computeMoves(from, to)
	return p, nil
}

// PlanLeave plans a graceful departure: the To map re-tiles the grid
// across Nodes()-1 map slots without the leaving member (remaining
// members keep their IDs), and the moves carry every bucket some
// survivor must acquire. The leaver stays a valid donor — it is alive
// throughout a planned leave; a *crashed* node is the rebuild path
// (RebuildNode), not a plan.
func PlanLeave(from *ShardMap, member int) (*MigrationPlan, error) {
	if from == nil {
		return nil, fmt.Errorf("cluster: nil From map")
	}
	if _, ok := from.NodeOfMember(member); !ok {
		return nil, fmt.Errorf("cluster: member %d is not in the epoch-%d map", member, from.Epoch())
	}
	if from.Nodes() < 2 {
		return nil, fmt.Errorf("cluster: cannot shrink a %d-node cluster", from.Nodes())
	}
	members := make([]int, 0, from.Nodes()-1)
	for _, m := range from.Members() {
		if m != member {
			members = append(members, m)
		}
	}
	to, err := newShardMapAt(from.Grid(), from.Nodes()-1, from.Replicas(), from.Stride(),
		from.Epoch()+1, members)
	if err != nil {
		return nil, fmt.Errorf("cluster: leave to %d nodes: %w", from.Nodes()-1, err)
	}
	p := &MigrationPlan{From: from, To: to, Kind: "leave", Member: member}
	p.Moves = computeMoves(from, to)
	return p, nil
}

// computeMoves derives the minimal (bucket, destination) transfer set
// between two maps of the same grid: for every To member, the buckets
// it holds under To and does not hold under From.
func computeMoves(from, to *ShardMap) []Move {
	var moves []Move
	for _, dest := range to.Members() {
		moves = append(moves, fill(from, to, dest, false)...)
	}
	return moves
}

// fill lists the copies that give dest every bucket it holds under to:
// all of them when dest was wiped (a rebuild, from == to), otherwise
// only those it does not already hold under from. Buckets group by the
// from shard they live in, so each move has one donor set — that
// shard's from members other than dest, possibly none.
func fill(from, to *ShardMap, dest int, wiped bool) []Move {
	want, have := to.holder(dest), from.holder(dest)
	need := make([][]int, len(from.shards)) // from shard → buckets, ascending
	for b, s := range from.shardOf {
		if want.holds(b) && (wiped || !have.holds(b)) {
			need[s] = append(need[s], b)
		}
	}
	var moves []Move
	for s, buckets := range need {
		if len(buckets) == 0 {
			continue
		}
		var sources []int
		for _, m := range from.ShardMembers(s) {
			if m != dest {
				sources = append(sources, m)
			}
		}
		moves = append(moves, Move{Dest: dest, Sources: sources, Buckets: buckets})
	}
	return moves
}
