// DialGroup: assembling a shardserve.Group whose shards live behind
// shardrpc endpoints — the client half of multi-process scatter/gather.

package shardrpc

import (
	"fmt"

	"sparta/internal/shardserve"
)

// DialGroup builds a shardserve.Group over remote shardserver
// processes: addrs[i] lists shard i's replica endpoints, each becoming
// a Replica whose Alg is a shardrpc.Client. The group then
// scatter-gathers exactly as it does in-process — per-shard deadline
// carving, hedging onto a different replica, transient-error failover,
// breakers and the k-way merge all unchanged; transport failures
// surface as replica errors and feed the same machinery.
//
// Connections dial lazily; no endpoint needs to be up yet. The returned
// clients are for Close and stats aggregation — one per (shard,
// replica), in shard-major order.
func DialGroup(addrs [][]string, gcfg shardserve.Config, ccfg Config) (*shardserve.Group, []*Client, error) {
	if len(addrs) == 0 {
		return nil, nil, fmt.Errorf("shardrpc: no shard endpoints")
	}
	var clients []*Client
	shards := make([]shardserve.Shard, len(addrs))
	for i, reps := range addrs {
		if len(reps) == 0 {
			return nil, nil, fmt.Errorf("shardrpc: shard %d has no endpoints", i)
		}
		rs := make([]shardserve.Replica, len(reps))
		for j, addr := range reps {
			cl := NewClient(addr, ccfg)
			clients = append(clients, cl)
			rs[j] = shardserve.Replica{Name: addr, Alg: cl}
		}
		shards[i] = shardserve.Shard{Name: fmt.Sprintf("shard%d", i), Replicas: rs}
	}
	g, err := shardserve.New(gcfg, shards...)
	if err != nil {
		CloseClients(clients)
		return nil, nil, err
	}
	return g, clients, nil
}

// CloseClients closes every client (nil-safe).
func CloseClients(clients []*Client) {
	for _, cl := range clients {
		if cl != nil {
			cl.Close()
		}
	}
}
