// Remote shard serving, re-exported from internal/shardrpc: a shard
// group whose shards live in other processes (cmd/shardserver), reached
// over a dependency-free framed binary RPC transport. A remote group is
// still a *ShardGroup — the scatter/gather, k-way merge, hedging, and
// breaker machinery are byte-identical to in-process serving; only the
// per-shard backend changes. See DESIGN.md
// §4h for the wire format and failure taxonomy.
package sparta

import (
	"sparta/internal/shardrpc"
	"sparta/internal/shardserve"
)

type (
	// ShardServer serves one shard group's search, resolve, and stats
	// RPCs on a TCP listener; cmd/shardserver is the standalone form.
	ShardServer = shardrpc.Server
	// ShardServerConfig parameterizes a ShardServer.
	ShardServerConfig = shardrpc.ServerConfig
	// ShardServerStats is a server's counter snapshot (the stats RPC).
	ShardServerStats = shardrpc.ServerStats
	// RemoteShard is a client for one remote shard endpoint. It
	// implements the per-shard search contract, so it slots into a
	// ShardReplica anywhere an in-process algorithm would.
	RemoteShard = shardrpc.Client
	// RemoteShardConfig tunes a RemoteShard (connection pool, dial and
	// redial backoff, cancel grace).
	RemoteShardConfig = shardrpc.Config
)

// Transport-level error classes: every connection failure a RemoteShard
// reports wraps ErrShardTransport, server-reported failures wrap
// ErrShardRemote. Both feed the group's transient/failover/breaker
// path.
var (
	ErrShardTransport = shardrpc.ErrTransport
	ErrShardRemote    = shardrpc.ErrRemote
)

// ServeShards serves g's shards over the wire on addr, for example
// ":7070". The group keeps working locally; the server only adds the
// remote surface.
func ServeShards(addr string, g *ShardGroup, cfg ShardServerConfig) (*ShardServer, error) {
	return shardrpc.Listen(addr, g, cfg)
}

// OpenOneShard opens a single shard of a WriteDir/cmd/shardbuild shard
// set as its own one-shard group — what cmd/shardserver runs: each
// process owns one shard (replicas, caches, and manifest verification
// included) and a DialShards group scatter/gathers across the
// processes.
func OpenOneShard(dir string, shard int, factory ShardFactory, cfg ShardGroupConfig) (*ShardGroup, error) {
	return shardserve.OpenShard(dir, shard, factory, cfg)
}

// DialShards assembles a shard group over remote endpoints:
// addrs[i] lists shard i's replica endpoints (each typically a
// cmd/shardserver process). The returned clients are in shard-major
// order; close them with CloseShards when done.
func DialShards(addrs [][]string, gcfg ShardGroupConfig, ccfg RemoteShardConfig) (*ShardGroup, []*RemoteShard, error) {
	return shardrpc.DialGroup(addrs, gcfg, ccfg)
}

// CloseShards closes every client (and the connections it pools).
func CloseShards(clients []*RemoteShard) { shardrpc.CloseClients(clients) }
