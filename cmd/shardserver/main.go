// Command shardserver serves one shard of a shard set over the wire:
// the standalone-process form of a shard replica. It opens a single
// shard of a directory built by cmd/shardbuild (verifying every file
// against the manifest's digests), attaches the configured replica and
// cache machinery, and answers search, resolve, and stats RPCs on a TCP
// listener (internal/shardrpc framing).
//
// A front-end assembles the full index by dialing one or more
// shardserver processes per shard (sparta.DialShards, or
// `examples/server -remote`); the resulting group merges exactly as if
// the shards were in-process.
//
// Usage:
//
//	shardbuild -docs 200000 -shards 4 -out data/shards
//	shardserver -dir data/shards -shard 0 -listen :7070 &
//	shardserver -dir data/shards -shard 1 -listen :7071 &
//	indexstat -stats localhost:7070           # counter snapshot
//
// On SIGINT/SIGTERM the server stops accepting, drains in-flight
// queries (bounded by -drain), and exits 0 only if every request
// settled its simulated I/O.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"sparta"
	"sparta/internal/bench"
	"sparta/internal/iomodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shardserver: ")
	var (
		dir      = flag.String("dir", "", "shard set directory (cmd/shardbuild output, required)")
		shard    = flag.Int("shard", 0, "which shard of the set this process serves")
		listen   = flag.String("listen", ":7070", "TCP listen address")
		name     = flag.String("name", "", "server name in stats (default the listen address)")
		algo     = flag.String("algo", string(bench.AlgoSparta), fmt.Sprintf("serving algorithm: %v", bench.AllAlgos))
		replicas = flag.Int("replicas", 1, "replica backends for this shard (hedging/failover within the process)")
		cacheMB  = flag.Int("cachemb", 16, "decoded-block cache budget per replica, MiB (0 disables)")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	id := bench.AlgoID(*algo)
	if !slices.Contains(bench.AllAlgos, id) {
		log.Fatalf("unknown algorithm %q (want one of %v)", *algo, bench.AllAlgos)
	}

	io := iomodel.DefaultConfig()
	cfg := sparta.ShardGroupConfig{IO: &io, Replicas: *replicas}
	if *cacheMB > 0 {
		cfg.CacheBytes = int64(*cacheMB) << 20
	}
	g, err := sparta.OpenOneShard(*dir, *shard, func(v sparta.View) sparta.Algorithm {
		return bench.MakeAlgorithm(id, v)
	}, cfg)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := sparta.ServeShards(*listen, g, sparta.ShardServerConfig{Name: *name})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving shard %d of %s (%s, %d replica(s)) on %s", *shard, *dir, id, *replicas, srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	log.Printf("shutting down: draining in-flight queries (budget %v)...", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	final := srv.Stats()
	if out, err := json.MarshalIndent(final, "", "  "); err == nil {
		log.Printf("final counters:\n%s", out)
	}
	if final.UnsettledViolations != 0 || g.Unsettled() != 0 {
		log.Fatalf("exiting with unsettled I/O: %d violations, %v outstanding",
			final.UnsettledViolations, g.Unsettled())
	}
	log.Printf("drained clean: %d requests served, every store settled", final.Requests)
}
