// Sharded serving, re-exported from internal/shardserve: a query fans
// out to independent index shards under per-shard deadlines and the
// per-shard top-k lists merge into the global top-k. See the
// shardserve package documentation for the serving semantics
// (deadlines, hedging, health) and DESIGN.md for the equivalence
// argument.
package sparta

import "sparta/internal/shardserve"

type (
	// ShardGroup serves queries over a set of index shards by
	// scatter/gather. It implements Algorithm, so NewSearcher(g, cfg)
	// serves it like any single-index strategy; g itself keeps the
	// per-shard surface (SearchShards, AllCounters, Unsettled,
	// RegisterMetrics). Leave the Searcher's PostingCache unset: shard
	// caches are per replica and attached at open time
	// (ShardGroupConfig.CacheBytes).
	ShardGroup = shardserve.Group
	// ShardGroupConfig parameterizes a ShardGroup (per-shard deadlines,
	// hedging, breaker, per-shard cache budget).
	ShardGroupConfig = shardserve.Config
	// ShardHedgeConfig tunes straggler hedging.
	ShardHedgeConfig = shardserve.HedgeConfig
	// Shard describes one index shard of a group.
	Shard = shardserve.Shard
	// ShardFactory builds one algorithm instance per shard view.
	ShardFactory = shardserve.Factory
	// ShardedStats is a scatter/gather query's aggregate statistics
	// plus the per-shard breakdown.
	ShardedStats = shardserve.ShardedStats
	// ShardRunStats is one shard's contribution to one query.
	ShardRunStats = shardserve.ShardRunStats
	// ShardCounters is one shard's aggregate serving counters,
	// including the per-replica breakdown and failover state.
	ShardCounters = shardserve.ShardCounters
	// ShardReplica is one replica backend of a shard: its view,
	// algorithm, store, and optional integrity-verification hook
	// consulted before the replica can be promoted to primary.
	ShardReplica = shardserve.Replica
	// ReplicaCounters is one replica's serving counters and breaker
	// state ("closed", "open", "half-open", or "corrupt").
	ReplicaCounters = shardserve.ReplicaCounters
	// ShardSetManifest is the verified shards.json manifest of a shard
	// set built by WriteDir/cmd/shardbuild: per-file SHA-256 digests
	// and a per-shard Merkle root.
	ShardSetManifest = shardserve.Manifest
)

// Aggregate stop reasons reported by scatter/gather queries. A query
// whose context ended reports its context's reason; else StopPartial if
// a shard was dropped; else a shard's early stop ("delta", "prob",
// "oom", …) if one stopped early; else StopMerged.
const (
	// StopMerged: every shard delivered a complete result and none
	// stopped early.
	StopMerged = shardserve.StopMerged
	// StopPartial: at least one shard was dropped; the merged top-k
	// covers the shards that answered.
	StopPartial = shardserve.StopPartial
)

// NewShardGroup assembles a group from already-opened shards.
func NewShardGroup(cfg ShardGroupConfig, shards ...Shard) (*ShardGroup, error) {
	return shardserve.New(cfg, shards...)
}

// ShardIndex partitions x into p document-range shards, opens each over
// its own simulated store (with a per-shard decoded-block cache when
// cfg.CacheBytes is set — the config path that attaches caches at open
// time), and serves them with factory's algorithm.
func ShardIndex(x *Index, p int, factory ShardFactory, cfg ShardGroupConfig) (*ShardGroup, error) {
	return shardserve.FromIndex(x, p, factory, cfg)
}

// OpenShardDir opens a shard set built by cmd/shardbuild (or
// shardserve.WriteDir), verifying every file against the manifest's
// digests before serving.
func OpenShardDir(dir string, factory ShardFactory, cfg ShardGroupConfig) (*ShardGroup, error) {
	return shardserve.OpenDir(dir, factory, cfg)
}

// VerifyShardDir recomputes every file digest and per-shard Merkle
// root of a shard set built by WriteDir/cmd/shardbuild and reports
// every mismatch (nil when the set is intact). `indexstat -verify` is
// the command-line form.
func VerifyShardDir(dir string) error { return shardserve.VerifySet(dir) }
