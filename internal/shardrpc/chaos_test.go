// Chaos acceptance for the transport: a replicated remote group — every
// replica its own loopback shardserver process behind a seeded schedule
// of dropped, garbled, stalled, and delayed frames on both directions,
// plus one permanently dark server — must keep answering queries
// byte-identical to the unfaulted single-index reference, and every
// server must end settled (Store.Unsettled()==0) on every completion
// path, including queries the client abandoned mid-flight. Run under
// -race in CI.
package shardrpc_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/core"
	"sparta/internal/faultinject"
	"sparta/internal/iomodel"
	"sparta/internal/postings"
	"sparta/internal/shardrpc"
	"sparta/internal/shardserve"
	"sparta/internal/topk"
)

// wireHook adapts a deterministic frame-fault schedule to the
// transport's hook type.
func wireHook(w *faultinject.WireInjector) shardrpc.FaultHook {
	return func(seq uint64, _ byte) shardrpc.WireFault {
		d := w.Decide(seq)
		return shardrpc.WireFault{Drop: d.Drop, Garble: d.Garble, Delay: d.Delay}
	}
}

func TestChaosTransportStaysExactAndSettled(t *testing.T) {
	x := algotest.MediumIndex(t, 777)
	dir := writeShards(t, x, 2)
	io := iomodel.Config{
		BlockSize: 4096, CacheBlocks: 256,
		SeqLatency: time.Microsecond, RandLatency: 4 * time.Microsecond,
		SleepBatch: 20 * time.Microsecond,
	}
	// ~10% of frames faulted, per direction. Drops are the expensive
	// fate (silence until a deadline or a hedge covers it); garbles
	// fail fast by killing the connection; stalls and delays only add
	// latency.
	plan := faultinject.WirePlan{
		Seed:       777,
		DropRate:   0.01,
		GarbleRate: 0.03,
		StallRate:  0.02, Stall: 2 * time.Millisecond,
		DelayRate: 0.04, Delay: 100 * time.Microsecond,
	}
	factory := func(v postings.View) topk.Algorithm { return core.New(v) }
	const p, r = 2, 3

	var (
		servers []*shardrpc.Server
		clients []*shardrpc.Client
		injs    []*faultinject.WireInjector
	)
	shards := make([]shardserve.Shard, p)
	for s := 0; s < p; s++ {
		reps := make([]shardserve.Replica, r)
		for ri := 0; ri < r; ri++ {
			var addr string
			var scfg shardrpc.ServerConfig
			if s == 0 && ri == 0 {
				// The dark shardserver: shard 0's primary endpoint
				// refuses every connection.
				addr = deadAddr(t)
			} else {
				g, err := shardserve.OpenShard(dir, s, factory, shardserve.Config{IO: &io})
				if err != nil {
					t.Fatal(err)
				}
				down := faultinject.NewWire(plan, s, ri, 1)
				injs = append(injs, down)
				scfg = shardrpc.ServerConfig{Name: fmt.Sprintf("s%dr%d", s, ri), FaultHook: wireHook(down)}
				srv, err := shardrpc.Listen("127.0.0.1:0", g, scfg)
				if err != nil {
					t.Fatal(err)
				}
				servers = append(servers, srv)
				addr = srv.Addr().String()
			}
			up := faultinject.NewWire(plan, s, ri, 0)
			injs = append(injs, up)
			cl := shardrpc.NewClient(addr, shardrpc.Config{
				Name:             fmt.Sprintf("s%dr%d", s, ri),
				FaultHook:        wireHook(up),
				CancelGrace:      10 * time.Millisecond,
				RedialBackoff:    2 * time.Millisecond,
				RedialBackoffMax: 20 * time.Millisecond,
			})
			clients = append(clients, cl)
			reps[ri] = shardserve.Replica{Name: cl.Name(), Alg: cl}
		}
		lo, hi := postings.ShardRange(x.NumDocs(), s, p)
		shards[s] = shardserve.Shard{Name: fmt.Sprintf("shard%d", s), Replicas: reps, Lo: lo, Hi: hi}
	}
	g, err := shardserve.New(shardserve.Config{
		ShardTimeout: 80 * time.Millisecond,
		TripAfter:    3, ProbeEvery: 4,
		RetryMax: 6, RetryBackoff: 10 * time.Microsecond,
		Hedge: shardserve.HedgeConfig{Enabled: true, MinDelay: 2 * time.Millisecond},
	}, shards...)
	if err != nil {
		t.Fatal(err)
	}

	const queries, k = 300, 10
	identical := 0
	for i := 0; i < queries; i++ {
		q := algotest.RandomQuery(x, 3+i%5, uint64(5000+i))
		want := topk.BruteForce(x, q, k)
		got, st, err := g.SearchShards(context.Background(), q, topk.Options{K: k, Exact: true})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if algotest.ExactMismatch(want, got) == "" {
			identical++
		} else if st.ShardsDropped == 0 {
			t.Fatalf("query %d: result differs from the reference with no shard dropped\ngot  %v\nwant %v", i, got, want)
		}
	}
	if frac := float64(identical) / queries; frac < 0.99 {
		t.Errorf("%.2f%% of queries byte-identical to the unfaulted reference, want >= 99%%", 100*frac)
	}

	// The dark shardserver was routed around, not waited on.
	if c := g.Counters(0); c.Promotions == 0 {
		t.Errorf("dark endpoint never promoted away: %+v", c)
	}

	// Abandon one query mid-flight so the stranded-request settlement
	// path runs under the fault schedule too, then tear everything down.
	actx, acancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
	_, _, _ = g.SearchShards(actx, algotest.RandomQuery(x, 8, 9999), topk.Options{K: k, Exact: true})
	acancel()
	shardrpc.CloseClients(clients)

	// Every server drains, ends settled, and saw no idle instant with
	// unsettled I/O across the whole run.
	for _, srv := range servers {
		waitIdle(t, srv)
		if v := srv.UnsettledViolations(); v != 0 {
			t.Errorf("%s: %d unsettled violations", srv.Stats().Name, v)
		}
		if d := srv.Group().Unsettled(); d != 0 {
			t.Errorf("%s: %v unsettled I/O after drain", srv.Stats().Name, d)
		}
		srv.Close()
	}

	// The schedule was not inert: every fate fired somewhere.
	var c faultinject.WireCounters
	for _, in := range injs {
		wc := in.Counters()
		c.Drops += wc.Drops
		c.Garbles += wc.Garbles
		c.Stalls += wc.Stalls
		c.Delays += wc.Delays
	}
	if c.Drops == 0 || c.Garbles == 0 || c.Stalls+c.Delays == 0 {
		t.Fatalf("fault schedule inert: %+v", c)
	}
}
