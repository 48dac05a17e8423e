package decluster

import (
	"context"

	"decluster/internal/cluster"
)

// ShardMap partitions a grid's bucket space into contiguous
// rectangular shards, one primary per node, and places replica copies
// with a node-level declustering stride — the paper's disk-declustering
// idea lifted one level up, so losing a node loses no shard entirely.
type ShardMap = cluster.ShardMap

// Shard is one contiguous rectangle of buckets plus the nodes that
// host it (Nodes[0] is the primary).
type Shard = cluster.Shard

// SubQuery is one shard-local piece of a decomposed range query.
type SubQuery = cluster.SubQuery

// NewShardMap builds a shard map with an explicit replica placement
// stride (1 = chain).
func NewShardMap(g *Grid, nodes, replicas, stride int) (*ShardMap, error) {
	return cluster.NewShardMap(g, nodes, replicas, stride)
}

// NewChainShardMap places each shard's replicas on consecutive nodes.
func NewChainShardMap(g *Grid, nodes, replicas int) (*ShardMap, error) {
	return cluster.NewChainShardMap(g, nodes, replicas)
}

// NewOffsetShardMap places replicas offset nodes apart, spreading a
// lost node's recovery load across distant peers.
func NewOffsetShardMap(g *Grid, nodes, replicas, offset int) (*ShardMap, error) {
	return cluster.NewOffsetShardMap(g, nodes, replicas, offset)
}

// ClusterNode is one cluster member: a grid file plus a Scheduler
// serving its hosted shards over HTTP.
type ClusterNode = cluster.Node

// ClusterNodeConfig configures a cluster node.
type ClusterNodeConfig = cluster.NodeConfig

// NewClusterNode builds a node holding its hosted slice of the records.
func NewClusterNode(cfg ClusterNodeConfig) (*ClusterNode, error) { return cluster.NewNode(cfg) }

// Router is the robust scatter/gather client: it decomposes a range
// query into per-shard sub-rectangles, fans them out with per-node
// deadlines, retries across replicas, hedges stragglers, trips
// per-node circuit breakers, and degrades to typed partial results
// when coverage is truly lost.
type Router = cluster.Router

// RouterConfig configures a Router.
type RouterConfig = cluster.RouterConfig

// NewRouter validates the configuration and builds a router.
func NewRouter(cfg RouterConfig) (*Router, error) { return cluster.NewRouter(cfg) }

// RouterResult reports one scatter/gather: merged records plus
// coverage and robustness counters.
type RouterResult = cluster.Result

// PartialError reports exactly which sub-rectangles a degraded query
// could not cover; the records that were gathered are still returned.
type PartialError = cluster.PartialError

// Sentinel errors for errors.Is classification of cluster outcomes.
var (
	// ErrPartial matches degraded queries that lost coverage.
	ErrPartial = cluster.ErrPartial
	// ErrNotHosted matches sub-queries sent to a node that does not
	// host the rectangle.
	ErrNotHosted = cluster.ErrNotHosted
	// ErrStaleEpoch matches requests refused for carrying an outdated
	// shard-map epoch; the full *StaleEpochError carries the newer map.
	ErrStaleEpoch = cluster.ErrStaleEpoch
	// ErrNoDonor matches rebuilds and migration fetches that found
	// every replica holder of some bucket hard-down.
	ErrNoDonor = cluster.ErrNoDonor
)

// ClusterErrorCode maps any error to its stable wire code, the same
// mapping nodes use to encode HTTP error envelopes.
func ClusterErrorCode(err error) string { return cluster.ErrorCode(err) }

// DecodeClusterError reverses the wire encoding: the returned error
// matches the original sentinel under errors.Is.
func DecodeClusterError(code, msg string) error { return cluster.DecodeError(code, msg) }

// ClusterHarness is an in-process multi-node cluster — real HTTP over
// loopback listeners — for tests, benchmarks, and chaos experiments.
type ClusterHarness = cluster.Harness

// ClusterHarnessConfig configures an in-process cluster.
type ClusterHarnessConfig = cluster.HarnessConfig

// StartClusterHarness boots nodes on loopback and a router over them.
func StartClusterHarness(cfg ClusterHarnessConfig) (*ClusterHarness, error) {
	return cluster.StartHarness(cfg)
}

// MigrationPlan is one membership change compiled to minimal bucket
// moves: the From and To maps (To's epoch is From's plus one) and the
// bucket lists each destination must receive.
type MigrationPlan = cluster.MigrationPlan

// Move is one planned transfer: the ascending row-major bucket numbers
// bound for one destination member from one donor set, the From-epoch
// replica holders of all of them.
type Move = cluster.Move

// PlanClusterJoin plans growing the cluster by one member: the joiner
// gets the next free member ID and takes over its share of every
// shard's replica set, moving as few buckets as the placement allows.
func PlanClusterJoin(from *ShardMap) (*MigrationPlan, error) {
	return cluster.PlanJoin(from)
}

// PlanClusterLeave plans retiring one member: its hosted buckets move
// to the surviving replicas' nodes.
func PlanClusterLeave(from *ShardMap, member int) (*MigrationPlan, error) {
	return cluster.PlanLeave(from, member)
}

// ClusterMigrateConfig drives one online membership change.
type ClusterMigrateConfig = cluster.MigrateConfig

// ClusterMigrateStats summarises an executed migration.
type ClusterMigrateStats = cluster.MigrateStats

// ClusterMigrateEvent is one migration progress observation.
type ClusterMigrateEvent = cluster.MigrateEvent

// MigrateCluster executes a membership change online — prepare, copy,
// cutover, adopt — with reads flowing throughout: the old epoch stays
// authoritative until every member promotes, and a failure before the
// first cutover ack rolls the whole change back.
func MigrateCluster(ctx context.Context, cfg ClusterMigrateConfig) (ClusterMigrateStats, error) {
	return cluster.Migrate(ctx, cfg)
}

// StaleEpochError is a node's reply to a request stamped with a
// shard-map epoch it no longer serves; it carries the node's current
// map, which is how routers learn of completed migrations.
type StaleEpochError = cluster.StaleEpochError

// NodeRebuildConfig configures a cross-node shard rebuild.
type NodeRebuildConfig = cluster.RebuildConfig

// NodeRebuildStats reports what a cross-node rebuild restored.
type NodeRebuildStats = cluster.RebuildStats

// RebuildClusterNode restores a node's hosted shards by streaming
// buckets from replica holders at background priority, paced by the
// repair throttle so foreground queries keep their latency budget.
func RebuildClusterNode(ctx context.Context, cfg NodeRebuildConfig, target *ClusterNode) (NodeRebuildStats, error) {
	return cluster.RebuildNode(ctx, cfg, target)
}
