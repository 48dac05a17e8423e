// Package cluster scales the declustering discipline one level up: it
// partitions the grid across N *nodes* the way the paper partitions
// buckets across disks, and keeps range queries answerable — exactly,
// or with typed partial results — while nodes crash, partition, lag,
// and roll through restarts.
//
// Three layers:
//
//   - ShardMap: a static partition of the grid into contiguous
//     rectangular shards, one primary node each, with R-copy replica
//     placement across nodes (chain or offset — the paper's disk-level
//     replica geometries reapplied at node level). A range query
//     decomposes into per-shard sub-rectangles that exactly tile it.
//
//   - Node: one cluster member — a serve.Scheduler (admission control,
//     per-disk breakers, hedging, the whole single-process stack) over
//     a grid file holding only the records of the shards the node
//     hosts, exposed over stdlib net/http with a stable error taxonomy
//     that round-trips typed errors across the wire.
//
//   - Router: the client side. It scatters a query's sub-rectangles to
//     shard owners concurrently and is robust by construction: per-node
//     deadlines, capped retry/backoff across a shard's replicas,
//     per-node circuit breakers (the serve breaker machinery reused),
//     hedged re-dispatch of slow sub-queries to replica holders, and —
//     when no replica of a shard is reachable — graceful degradation to
//     a typed *PartialError naming the exact uncovered sub-rectangles.
package cluster

import (
	"fmt"
	"sort"

	"decluster/internal/grid"
)

// Shard is one contiguous rectangular piece of the grid and the nodes
// that hold a copy of its data.
type Shard struct {
	// ID is the shard's index in ShardMap.Shards().
	ID int
	// Rect is the shard's bucket rectangle; shard rects tile the grid
	// exactly (disjoint, union = whole grid). Only Decompose and the
	// /v1/shards listing read it: which member stores which bucket is
	// ShardMap.Holds, which never assumes a shard is a rectangle.
	Rect grid.Rect
	// Nodes lists the nodes holding the shard's data: Nodes[0] is the
	// primary, the rest replicas, all distinct.
	Nodes []int
}

// SubQuery is one shard's piece of a decomposed range query.
type SubQuery struct {
	// Shard is the shard the sub-rectangle falls in.
	Shard int
	// Rect is the query ∩ shard intersection (never empty).
	Rect grid.Rect
}

// ShardMap is a versioned partition of a grid across cluster nodes
// with R-copy replica placement. It is immutable after construction and
// safe for concurrent use; membership changes produce a *new* map at
// the next epoch (see PlanJoin/PlanLeave), never mutate an old one.
//
// Two id spaces coexist:
//
//   - map node indices 0..Nodes()-1, the placement geometry's space
//     (Shard.Nodes, HostedShards);
//   - stable member IDs (Members()), the wire-level identity a node
//     keeps across epochs. A joiner gets a fresh member ID; a leaver's
//     ID is never reused. For a map built by NewShardMap the two
//     coincide (member i == node index i).
type ShardMap struct {
	g        *grid.Grid
	nodes    int
	replicas int
	stride   int
	epoch    uint64
	members  []int       // map node index → stable member ID
	nodeOf   map[int]int // stable member ID → map node index
	shards   []Shard
	shardOf  []int   // row-major bucket → shard
	hosted   [][]int // node → shard IDs it holds a copy of
}

// NewChainShardMap partitions g across nodes with chained node-level
// replication: shard i's copies live on nodes i, i+1, …, i+replicas-1
// (mod nodes) — the cluster analogue of chained declustering, where a
// lost node's load spreads to its neighbours.
func NewChainShardMap(g *grid.Grid, nodes, replicas int) (*ShardMap, error) {
	return NewShardMap(g, nodes, replicas, 1)
}

// NewOffsetShardMap partitions g across nodes with offset node-level
// replication: shard i's j-th copy lives on node i + j·offset (mod
// nodes) — the cluster analogue of offset declustering, placing a
// shard's replicas far from its primary so correlated neighbour
// failures don't take both copies.
func NewOffsetShardMap(g *grid.Grid, nodes, replicas, offset int) (*ShardMap, error) {
	return NewShardMap(g, nodes, replicas, offset)
}

// NewShardMap partitions g into one contiguous rectangular shard per
// node and places replicas with the given stride: shard i's copies live
// on nodes (i + j·stride) mod nodes for j = 0..replicas-1. Stride 1 is
// chain placement, stride ≈ nodes/2 offset placement. It errors unless
// 1 ≤ replicas ≤ nodes, the copies of every shard land on distinct
// nodes, and the grid has at least one bucket per node. The map is
// born at epoch 1 with identity members (member i == node index i).
func NewShardMap(g *grid.Grid, nodes, replicas, stride int) (*ShardMap, error) {
	return newShardMapAt(g, nodes, replicas, stride, 1, nil)
}

// newShardMapAt builds a map at an explicit epoch with an explicit
// member list (nil selects the identity). It is the constructor every
// epoch transition funnels through: a plan's To map and a wire-decoded
// map are both rebuilt here, so two maps with equal (grid, nodes,
// replicas, stride, epoch, members) are equal everywhere.
func newShardMapAt(g *grid.Grid, nodes, replicas, stride int, epoch uint64, members []int) (*ShardMap, error) {
	if g == nil {
		return nil, fmt.Errorf("cluster: nil grid")
	}
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: need ≥ 1 node, got %d", nodes)
	}
	if g.Buckets() < nodes {
		return nil, fmt.Errorf("cluster: grid %v has %d buckets for %d nodes; need ≥ 1 bucket per node",
			g, g.Buckets(), nodes)
	}
	if replicas < 1 || replicas > nodes {
		return nil, fmt.Errorf("cluster: replicas %d outside [1, %d nodes]", replicas, nodes)
	}
	s := ((stride % nodes) + nodes) % nodes
	if replicas > 1 && s == 0 {
		return nil, fmt.Errorf("cluster: stride %d ≡ 0 (mod %d); replicas would share a node", stride, nodes)
	}
	// Copies of one shard must land on distinct nodes: j·stride mod
	// nodes must be pairwise distinct for j = 0..replicas-1.
	seen := map[int]bool{}
	for j := 0; j < replicas; j++ {
		n := (j * s) % nodes
		if seen[n] {
			return nil, fmt.Errorf("cluster: stride %d places %d replicas on coinciding nodes (mod %d)",
				stride, replicas, nodes)
		}
		seen[n] = true
	}

	if epoch == 0 {
		return nil, fmt.Errorf("cluster: epoch 0 is reserved for unversioned requests")
	}
	if members == nil {
		members = make([]int, nodes)
		for i := range members {
			members[i] = i
		}
	}
	if len(members) != nodes {
		return nil, fmt.Errorf("cluster: %d members for %d nodes", len(members), nodes)
	}
	nodeOf := make(map[int]int, nodes)
	for i, m := range members {
		if m < 0 {
			return nil, fmt.Errorf("cluster: negative member ID %d", m)
		}
		if _, dup := nodeOf[m]; dup {
			return nil, fmt.Errorf("cluster: duplicate member ID %d", m)
		}
		nodeOf[m] = i
	}

	var rects []grid.Rect
	if err := splitRect(g.FullRect(), nodes, &rects); err != nil {
		return nil, err
	}
	sm := &ShardMap{
		g: g, nodes: nodes, replicas: replicas, stride: s,
		epoch: epoch, members: append([]int(nil), members...), nodeOf: nodeOf,
		shards:  make([]Shard, nodes),
		shardOf: make([]int, g.Buckets()),
		hosted:  make([][]int, nodes),
	}
	for i, r := range rects {
		hosts := make([]int, replicas)
		for j := range hosts {
			hosts[j] = (i + j*s) % nodes
		}
		sm.shards[i] = Shard{ID: i, Rect: r, Nodes: hosts}
		for _, b := range g.AppendRect(nil, r) {
			sm.shardOf[b] = i
		}
		for _, n := range hosts {
			sm.hosted[n] = append(sm.hosted[n], i)
		}
	}
	for n := range sm.hosted {
		sort.Ints(sm.hosted[n])
	}
	return sm, nil
}

// splitRect recursively halves r into n contiguous rectangles along the
// longest axis, splitting the node budget proportionally. Every piece
// keeps at least one bucket per node of its budget.
func splitRect(r grid.Rect, n int, out *[]grid.Rect) error {
	if n == 1 {
		*out = append(*out, grid.Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()})
		return nil
	}
	axis, side := 0, r.Side(0)
	for i := 1; i < r.K(); i++ {
		if s := r.Side(i); s > side {
			axis, side = i, s
		}
	}
	if side < 2 {
		return fmt.Errorf("cluster: cannot split rect %v (volume %d) into %d shards", r, r.Volume(), n)
	}
	nl := n / 2
	nr := n - nl
	slab := r.Volume() / side // buckets per unit of the split axis
	// Proportional split, clamped so both halves keep ≥ 1 bucket per
	// node of their budget.
	sideLeft := (side*nl + n/2) / n
	if min := (nl + slab - 1) / slab; sideLeft < min {
		sideLeft = min
	}
	if max := side - (nr+slab-1)/slab; sideLeft > max {
		sideLeft = max
	}
	if sideLeft < 1 || sideLeft >= side {
		return fmt.Errorf("cluster: cannot split rect %v into %d+%d shards", r, nl, nr)
	}
	left := grid.Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
	left.Hi[axis] = r.Lo[axis] + sideLeft - 1
	right := grid.Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
	right.Lo[axis] = r.Lo[axis] + sideLeft
	if err := splitRect(left, nl, out); err != nil {
		return err
	}
	return splitRect(right, nr, out)
}

// Grid returns the partitioned grid.
func (sm *ShardMap) Grid() *grid.Grid { return sm.g }

// Nodes returns the cluster size N.
func (sm *ShardMap) Nodes() int { return sm.nodes }

// Replicas returns the copies per shard.
func (sm *ShardMap) Replicas() int { return sm.replicas }

// Stride returns the replica placement stride (1 = chain).
func (sm *ShardMap) Stride() int { return sm.stride }

// Epoch returns the map's version. Epochs are monotonic across
// membership changes: PlanJoin/PlanLeave produce a To map at
// From.Epoch()+1, and nodes and routers follow the largest epoch they
// have seen. Epoch 0 never names a map — on the wire it marks an
// unversioned (pre-epoch) request.
func (sm *ShardMap) Epoch() uint64 { return sm.epoch }

// Members returns the stable member ID of every map node, indexed by
// map node index. The slice is shared; callers must not mutate it.
func (sm *ShardMap) Members() []int { return sm.members }

// MemberAt returns the stable member ID of map node index i.
func (sm *ShardMap) MemberAt(i int) int { return sm.members[i] }

// NodeOfMember returns the map node index of a stable member ID, or
// (-1, false) when the member is not in this epoch's map (a standby
// joiner, or a member that has left).
func (sm *ShardMap) NodeOfMember(member int) (int, bool) {
	i, ok := sm.nodeOf[member]
	if !ok {
		return -1, false
	}
	return i, true
}

// MaxMember returns the largest member ID in the map (-1 when empty).
func (sm *ShardMap) MaxMember() int {
	max := -1
	for _, m := range sm.members {
		if m > max {
			max = m
		}
	}
	return max
}

// Holds reports whether member stores the row-major bucket under this
// map: whether some copy of the shard the bucket falls in lives on the
// member's node (R comparisons). It is the one statement of hostedness — a shard
// is the bucket set shardOf assigns it, whatever its shape — and a
// member absent from the map (a standby, a leaver) holds nothing.
func (sm *ShardMap) Holds(member, bucket int) bool {
	return sm.holder(member).holds(bucket)
}

// holder is Holds with the member's node index resolved once, for loops
// that ask about many buckets.
type holder struct {
	sm   *ShardMap
	node int // -1: not a member of sm
}

func (sm *ShardMap) holder(member int) holder {
	node, _ := sm.NodeOfMember(member)
	return holder{sm, node}
}

func (h holder) holds(bucket int) bool {
	for _, n := range h.sm.shards[h.sm.shardOf[bucket]].Nodes {
		if n == h.node {
			return true
		}
	}
	return false
}

// HostedShardsOfMember returns the shards a stable member holds a copy
// of under this map (nil for a non-member). The slice is shared;
// callers must not mutate it.
func (sm *ShardMap) HostedShardsOfMember(member int) []int {
	i, ok := sm.nodeOf[member]
	if !ok {
		return nil
	}
	return sm.hosted[i]
}

// PlacementName names the replica geometry: "none" (one copy),
// "chain" (stride 1), or "offset+k".
func (sm *ShardMap) PlacementName() string {
	switch {
	case sm.replicas == 1:
		return "none"
	case sm.stride == 1:
		return "chain"
	default:
		return fmt.Sprintf("offset+%d", sm.stride)
	}
}

// Shards returns the shard set; the slice is shared, callers must not
// mutate it.
func (sm *ShardMap) Shards() []Shard { return sm.shards }

// Shard returns shard i.
func (sm *ShardMap) Shard(i int) Shard { return sm.shards[i] }

// ShardOf returns the shard containing the bucket at c. It panics on an
// invalid coordinate (matching grid.Grid.Linearize).
func (sm *ShardMap) ShardOf(c grid.Coord) int { return sm.shardOf[sm.g.Linearize(c)] }

// ShardMembers returns the stable member IDs hosting shard i, primary
// first — Shard.Nodes translated out of map-index space.
func (sm *ShardMap) ShardMembers(i int) []int {
	hosts := sm.shards[i].Nodes
	out := make([]int, len(hosts))
	for j, n := range hosts {
		out[j] = sm.members[n]
	}
	return out
}

// HostedShards returns the shards node n holds a copy of, ascending.
// The slice is shared; callers must not mutate it.
func (sm *ShardMap) HostedShards(n int) []int {
	if n < 0 || n >= sm.nodes {
		return nil
	}
	return sm.hosted[n]
}

// Decompose splits a range query into per-shard sub-rectangles. The
// returned sub-queries exactly tile q: disjoint, and their union is q.
// Shards the query misses (zero-volume intersections) are absent.
func (sm *ShardMap) Decompose(q grid.Rect) ([]SubQuery, error) {
	if err := sm.g.CheckRect(q); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	var subs []SubQuery
	for _, sh := range sm.shards {
		if r, ok := intersectRect(q, sh.Rect); ok {
			subs = append(subs, SubQuery{Shard: sh.ID, Rect: r})
		}
	}
	return subs, nil
}

// intersectRect returns a ∩ b and whether it is non-empty.
func intersectRect(a, b grid.Rect) (grid.Rect, bool) {
	lo := make(grid.Coord, len(a.Lo))
	hi := make(grid.Coord, len(a.Hi))
	for i := range lo {
		lo[i] = a.Lo[i]
		if b.Lo[i] > lo[i] {
			lo[i] = b.Lo[i]
		}
		hi[i] = a.Hi[i]
		if b.Hi[i] < hi[i] {
			hi[i] = b.Hi[i]
		}
		if lo[i] > hi[i] {
			return grid.Rect{}, false
		}
	}
	return grid.Rect{Lo: lo, Hi: hi}, true
}
