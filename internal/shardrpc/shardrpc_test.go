// External test package: these tests drive the exported API with
// bench.MakeAlgorithm's full exact-algorithm family.
package shardrpc_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/bench"
	"sparta/internal/core"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/shardrpc"
	"sparta/internal/shardserve"
	"sparta/internal/topk"
)

// writeShards writes x as a p-shard verified set in a temp dir.
func writeShards(t *testing.T, x *index.Index, p int) string {
	t.Helper()
	dir := t.TempDir()
	if err := shardserve.WriteDir(x, p, 0, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// startServers opens every shard of dir as its own single-shard group
// (the cmd/shardserver arrangement) and serves each on loopback,
// returning the per-shard endpoints.
func startServers(t *testing.T, dir string, p int, factory shardserve.Factory, scfg shardserve.Config) ([]*shardrpc.Server, [][]string) {
	t.Helper()
	servers := make([]*shardrpc.Server, p)
	addrs := make([][]string, p)
	for s := 0; s < p; s++ {
		g, err := shardserve.OpenShard(dir, s, factory, scfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := shardrpc.Listen("127.0.0.1:0", g, shardrpc.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers[s] = srv
		addrs[s] = []string{srv.Addr().String()}
	}
	return servers, addrs
}

// deadAddr returns a loopback address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// waitIdle blocks until the server has no requests in flight.
func waitIdle(t *testing.T, srv *shardrpc.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRemoteMatchesInProcessExact is the over-the-wire form of the
// merge-equivalence property: for every exact algorithm and
// P ∈ {1,2,4}, scatter/gather over loopback shardserver processes is
// byte-identical to both the in-process group over the same shard set
// and the single-index brute-force reference — with no resolve round
// trip: every server's Resolves counter stays 0. Runs under -race in CI.
func TestRemoteMatchesInProcessExact(t *testing.T) {
	x := algotest.MediumIndex(t, 420)
	ram := iomodel.RAMConfig()
	queries := []model.Query{
		algotest.RandomQuery(x, 3, 17),
		algotest.RandomQuery(x, 7, 23),
	}
	for _, p := range []int{1, 2, 4} {
		dir := writeShards(t, x, p)
		for _, id := range bench.AllAlgos {
			id := id
			factory := func(v postings.View) topk.Algorithm { return bench.MakeAlgorithm(id, v) }
			servers, addrs := startServers(t, dir, p, factory, shardserve.Config{IO: &ram})
			remote, clients, err := shardrpc.DialGroup(addrs, shardserve.Config{}, shardrpc.Config{})
			if err != nil {
				t.Fatal(err)
			}
			inproc, err := shardserve.OpenDir(dir, factory, shardserve.Config{IO: &ram})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				k := 10 + qi*15
				name := fmt.Sprintf("P=%d/%s/q%d", p, id, qi)
				want := topk.BruteForce(x, q, k)
				opts := topk.Options{K: k, Exact: true, Threads: 2}
				gotR, stR, err := remote.Search(q, opts)
				if err != nil {
					t.Fatalf("%s: remote: %v", name, err)
				}
				if stR.ShardsDropped != 0 || stR.StopReason != shardserve.StopMerged {
					t.Fatalf("%s: remote dropped=%d reason=%q, want clean merge", name, stR.ShardsDropped, stR.StopReason)
				}
				gotL, _, err := inproc.Search(q, opts)
				if err != nil {
					t.Fatalf("%s: in-process: %v", name, err)
				}
				algotest.AssertExact(t, name+"/remote", want, gotR)
				algotest.AssertExact(t, name+"/inproc", want, gotL)
			}
			shardrpc.CloseClients(clients)
			for _, srv := range servers {
				waitIdle(t, srv)
				if v := srv.UnsettledViolations(); v != 0 {
					t.Fatalf("P=%d/%s: %d unsettled violations server-side", p, id, v)
				}
				if d := srv.Group().Unsettled(); d != 0 {
					t.Fatalf("P=%d/%s: %v unsettled I/O server-side", p, id, d)
				}
				if n := srv.Stats().Resolves; n != 0 {
					t.Fatalf("P=%d/%s: %d resolve RPCs served, want 0", p, id, n)
				}
			}
		}
	}
}

// slowIO is a disk-modeled store config that makes medium-index queries
// take long enough to cancel mid-flight.
func slowIO() iomodel.Config {
	return iomodel.Config{
		BlockSize: 4096, CacheBlocks: 64,
		SeqLatency: 2 * time.Microsecond, RandLatency: 8 * time.Microsecond,
		SleepBatch: 20 * time.Microsecond,
	}
}

// TestRemoteCancelAndDisconnectSettle drives every remote completion
// path that can strand work — deadline expiry, explicit client cancel,
// and a client that vanishes mid-flight — and checks the server ends
// each one settled: partial results come back with their stop reason,
// and Store.Unsettled()==0 holds at every idle instant (the server's
// violation counter stays zero).
func TestRemoteCancelAndDisconnectSettle(t *testing.T) {
	x := algotest.MediumIndex(t, 99)
	dir := writeShards(t, x, 1)
	io := slowIO()
	g, err := shardserve.OpenShard(dir, 0, func(v postings.View) topk.Algorithm { return core.New(v) },
		shardserve.Config{IO: &io})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := shardrpc.Listen("127.0.0.1:0", g, shardrpc.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q := algotest.RandomQuery(x, 8, 7)
	opts := topk.Options{K: 50, Exact: true}

	cl := shardrpc.NewClient(srv.Addr().String(), shardrpc.Config{})
	defer cl.Close()

	// Deadline path: the budget crosses the wire and the server's
	// anytime partial comes back without an error. Whether the server's
	// restarted budget or the client's own deadline (via the cancel
	// frame) fires first, the caller must see StopDeadline — the same
	// reason a local algorithm watching this context would report.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Microsecond)
	res, st, err := cl.SearchContext(ctx, q, opts)
	cancel()
	if err != nil {
		t.Fatalf("deadline search: %v", err)
	}
	if st.StopReason != topk.StopDeadline {
		t.Fatalf("deadline search: stop reason %q, want %q", st.StopReason, topk.StopDeadline)
	}
	if len(res) > opts.K {
		t.Fatalf("deadline search: %d results exceed k=%d", len(res), opts.K)
	}

	// Explicit cancel path: the cancel frame reaches the in-flight id;
	// the server joins the request with its partial result. A warm
	// query finishes in under a millisecond, which a 300 µs sleep can
	// outlast, so this one reads a flushed page cache whose every fetch
	// is stuck until the cancel cuts it short.
	store := g.ShardInfo(0).Replicas[0].Store
	store.Flush()
	store.SetFaultHook(func(int, int64) time.Duration { return 2 * time.Millisecond })
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Microsecond)
		cancel2()
	}()
	_, st2, err := cl.SearchContext(ctx2, q, opts)
	cancel2()
	store.SetFaultHook(nil)
	if err != nil {
		t.Fatalf("cancelled search: %v", err)
	}
	if st2.StopReason != topk.StopCancelled && st2.StopReason != topk.StopDeadline {
		t.Fatalf("cancelled search: stop reason %q, want an anytime stop", st2.StopReason)
	}

	waitIdle(t, srv)
	if d := g.Unsettled(); d != 0 {
		t.Fatalf("unsettled after cancels: %v", d)
	}

	// Mid-flight disconnect: the client dies with a request executing.
	// The server cancels the stranded request, runs it to completion,
	// and still ends settled.
	cl2 := shardrpc.NewClient(srv.Addr().String(), shardrpc.Config{})
	done := make(chan error, 1)
	go func() {
		_, _, err := cl2.SearchContext(context.Background(), q, opts)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the server")
		}
		time.Sleep(50 * time.Microsecond)
	}
	cl2.Close()
	if err := <-done; !errors.Is(err, shardrpc.ErrTransport) {
		t.Fatalf("disconnected search: err %v, want ErrTransport", err)
	}
	waitIdle(t, srv)
	if d := g.Unsettled(); d != 0 {
		t.Fatalf("unsettled after disconnect: %v", d)
	}
	if v := srv.UnsettledViolations(); v != 0 {
		t.Fatalf("%d unsettled violations", v)
	}
	// The connection's reader counts the disconnect when it sees EOF,
	// which can come after the request it was serving has finished.
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Disconnects == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("disconnect not counted: %+v", srv.Stats())
		}
	}
}

// TestRemoteEmptyQueryExhausted: over the wire too, a query with no
// terms is answered empty and stopped "exhausted", as a single index
// answers it, and no request reaches a server.
func TestRemoteEmptyQueryExhausted(t *testing.T) {
	x := algotest.MediumIndex(t, 8)
	ram := iomodel.RAMConfig()
	factory := func(v postings.View) topk.Algorithm { return core.New(v) }
	servers, addrs := startServers(t, writeShards(t, x, 2), 2, factory, shardserve.Config{IO: &ram})
	g, clients, err := shardrpc.DialGroup(addrs, shardserve.Config{}, shardrpc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shardrpc.CloseClients(clients)
	res, st, err := g.Search(model.Query{}, topk.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || st.StopReason != "exhausted" {
		t.Fatalf("%d results stopped %q, want none stopped exhausted", len(res), st.StopReason)
	}
	for i, srv := range servers {
		if n := srv.Stats().Requests; n != 0 {
			t.Fatalf("server %d served %d requests, want 0", i, n)
		}
	}
}

// expireAlg runs an algorithm under a deadline of its own, d from the
// call: a shard whose replica it wraps misses its deadline.
type expireAlg struct {
	topk.Algorithm
	d time.Duration
}

func (a expireAlg) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

func (a expireAlg) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	ctx, cancel := context.WithTimeout(ctx, a.d)
	defer cancel()
	return a.Algorithm.SearchContext(ctx, q, opts)
}

// TestRemoteStopReasonsDistinguishable is the ShardedStats stop-reason
// merging contract over the wire: a remote shard that answers a partial
// (deadline), one that fails at the transport, and one skipped by its
// breaker must stay distinguishable — per run and in the shard
// counters.
func TestRemoteStopReasonsDistinguishable(t *testing.T) {
	x := algotest.MediumIndex(t, 5)
	dir := writeShards(t, x, 3)
	ram := iomodel.RAMConfig()
	slow := slowIO()
	factory := func(v postings.View) topk.Algorithm { return core.New(v) }

	g0, err := shardserve.OpenShard(dir, 0, factory, shardserve.Config{IO: &ram})
	if err != nil {
		t.Fatal(err)
	}
	s0, err := shardrpc.Listen("127.0.0.1:0", g0, shardrpc.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	g1, err := shardserve.OpenShard(dir, 1, factory, shardserve.Config{IO: &slow})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := shardrpc.Listen("127.0.0.1:0", g1, shardrpc.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()

	addrs := []string{s0.Addr().String(), s1.Addr().String(), deadAddr(t)}
	var clients []*shardrpc.Client
	defer func() { shardrpc.CloseClients(clients) }()
	shards := make([]shardserve.Shard, len(addrs))
	for i, addr := range addrs {
		cl := shardrpc.NewClient(addr, shardrpc.Config{CancelGrace: 100 * time.Millisecond})
		clients = append(clients, cl)
		var alg topk.Algorithm = cl
		if i == 1 {
			// Shard 1 gets a budget far below its slow-I/O evaluation
			// time; the others keep the full query budget.
			alg = expireAlg{cl, 300 * time.Microsecond}
		}
		shards[i] = shardserve.Shard{Replicas: []shardserve.Replica{{Name: addr, Alg: alg}}}
	}
	g, err := shardserve.New(shardserve.Config{
		TripAfter:  1,
		ProbeEvery: 1 << 20, // no probes during this test
		RetryMax:   -1,      // single attempt per shard per query
	}, shards...)
	if err != nil {
		t.Fatal(err)
	}

	q := algotest.RandomQuery(x, 8, 11)
	opts := topk.Options{K: 10, Exact: true}

	_, sst, err := g.SearchShards(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	runs := sst.Shards
	if runs[0].Dropped || runs[0].Err != nil {
		t.Fatalf("healthy shard degraded: %+v", runs[0])
	}
	if !runs[1].Dropped || runs[1].Err != nil || runs[1].Stats.StopReason != topk.StopDeadline {
		t.Fatalf("partial shard: dropped=%v err=%v reason=%q, want dropped deadline partial without error",
			runs[1].Dropped, runs[1].Err, runs[1].Stats.StopReason)
	}
	if !runs[2].Dropped || runs[2].Err == nil || runs[2].Skipped {
		t.Fatalf("transport-failed shard: %+v, want dropped with an error on its first attempt", runs[2])
	}
	if !errors.Is(runs[2].Err, shardrpc.ErrTransport) {
		t.Fatalf("transport error not ErrTransport: %v", runs[2].Err)
	}
	if sst.ShardsDropped != 2 || sst.StopReason != shardserve.StopPartial {
		t.Fatalf("aggregate: dropped=%d reason=%q, want 2 partial", sst.ShardsDropped, sst.StopReason)
	}

	// Second query: shard 2's breaker (TripAfter=1) is now open — the
	// shard is skipped, which must read differently from an error.
	_, sst2, err := g.SearchShards(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sst2.Shards[2].Skipped || sst2.Shards[2].Err != nil {
		t.Fatalf("breaker-skipped shard: %+v, want skipped without error", sst2.Shards[2])
	}

	// The three outcomes stay distinguishable in the counters.
	if c := g.Counters(0); c.Errors != 0 || c.DeadlineMisses != 0 || c.Skips != 0 {
		t.Fatalf("healthy shard counters polluted: %+v", c)
	}
	if c := g.Counters(1); c.DeadlineMisses < 1 || c.Errors != 0 || c.Skips != 0 {
		t.Fatalf("partial shard counters: %+v, want deadline misses only", c)
	}
	if c := g.Counters(2); c.Errors != 1 || c.Skips != 1 || c.DeadlineMisses != 0 {
		t.Fatalf("failed shard counters: %+v, want 1 error and 1 skip", c)
	}
}

// TestGarbledFrameKillsConnection: a CRC mismatch must kill the
// connection (never deliver corrupt bytes), count as a bad frame, and
// leave the client able to redial and succeed.
func TestGarbledFrameKillsConnection(t *testing.T) {
	x := algotest.SmallIndex(t, 3)
	dir := writeShards(t, x, 1)
	ram := iomodel.RAMConfig()
	g, err := shardserve.OpenShard(dir, 0, func(v postings.View) topk.Algorithm { return core.New(v) },
		shardserve.Config{IO: &ram})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := shardrpc.Listen("127.0.0.1:0", g, shardrpc.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One-shot: frame sequence numbers restart per connection, so
	// keying on seq would garble every redial's first frame too.
	var garbledOnce atomic.Bool
	hook := func(_ uint64, _ byte) shardrpc.WireFault {
		return shardrpc.WireFault{Garble: garbledOnce.CompareAndSwap(false, true)}
	}
	cl := shardrpc.NewClient(srv.Addr().String(), shardrpc.Config{
		FaultHook:     hook,
		RedialBackoff: time.Millisecond,
	})
	defer cl.Close()
	q := algotest.RandomQuery(x, 3, 1)
	if _, _, err := cl.Search(q, topk.Options{K: 5}); !errors.Is(err, shardrpc.ErrTransport) {
		t.Fatalf("garbled request: err %v, want ErrTransport", err)
	}
	// The client redials (capped backoff) and the next clean frame works.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := cl.Search(q, topk.Options{K: 5}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after garbled frame")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s := srv.Stats(); s.BadFrames == 0 {
		t.Fatalf("garbled frame not counted: %+v", s)
	}
}

// TestServerStatsRPC exercises the admin plane: counters cross the wire
// and carry the shard breakdown.
func TestServerStatsRPC(t *testing.T) {
	x := algotest.SmallIndex(t, 8)
	dir := writeShards(t, x, 1)
	ram := iomodel.RAMConfig()
	g, err := shardserve.OpenShard(dir, 0, func(v postings.View) topk.Algorithm { return core.New(v) },
		shardserve.Config{IO: &ram})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := shardrpc.Listen("127.0.0.1:0", g, shardrpc.ServerConfig{Name: "s0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := shardrpc.NewClient(srv.Addr().String(), shardrpc.Config{})
	defer cl.Close()
	q := algotest.RandomQuery(x, 3, 2)
	if _, _, err := cl.Search(q, topk.Options{K: 5}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "s0" || st.Requests != 1 || len(st.Shards) != 1 {
		t.Fatalf("stats: %+v, want name s0, 1 request, 1 shard", st)
	}
	if st.Shards[0].Queries != 1 {
		t.Fatalf("shard counters did not cross the wire: %+v", st.Shards[0])
	}
	if st.UnsettledViolations != 0 {
		t.Fatalf("unsettled violations: %d", st.UnsettledViolations)
	}
}

// leaksIO is an algorithm that charges one block read through its own
// reader and returns without settling it: the bug the server's
// idle-instant settlement check exists to catch.
type leaksIO struct {
	st   *iomodel.Store
	file int
	rd   *iomodel.Reader
}

func (a *leaksIO) Name() string { return "leaksIO" }

func (a *leaksIO) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

func (a *leaksIO) SearchContext(context.Context, model.Query, topk.Options) (model.TopK, topk.Stats, error) {
	a.rd = a.st.NewReader(a.file)
	a.rd.View(0, 1)
	return model.TopK{}, topk.Stats{}, nil
}

// TestSettlementCheckFires serves a one-shard group whose algorithm
// leaves one block read unpaid, and checks that the server counts the
// idle instant that finds the debt.
func TestSettlementCheckFires(t *testing.T) {
	cfg := iomodel.DefaultConfig()
	cfg.SleepBatch = time.Hour // one read's charge is owed, never paid on the spot
	st := iomodel.NewStore(cfg)
	alg := &leaksIO{st: st, file: st.AddFile("postings", make([]byte, 64))}
	g, err := shardserve.New(shardserve.Config{}, shardserve.Shard{
		Replicas: []shardserve.Replica{{Name: "leaky", Alg: alg, Store: st}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := shardrpc.Listen("127.0.0.1:0", g, shardrpc.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := shardrpc.NewClient(srv.Addr().String(), shardrpc.Config{})
	defer cl.Close()
	if _, _, err := cl.Search(model.Query{0}, topk.Options{K: 1}); err != nil {
		t.Fatal(err)
	}
	// The handler counts the violation after it has answered.
	deadline := time.Now().Add(5 * time.Second)
	for srv.UnsettledViolations() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.UnsettledViolations(); got != 1 {
		t.Fatalf("unsettled violations = %d, want 1", got)
	}
	alg.rd.Settle()
	algotest.AssertSettled(t, "after the test settles the leaked read", st)
}

// fixedAlg answers every query with the same top-k.
type fixedAlg struct{ res model.TopK }

func (fixedAlg) Name() string { return "fixed" }

func (a fixedAlg) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

func (a fixedAlg) SearchContext(context.Context, model.Query, topk.Options) (model.TopK, topk.Stats, error) {
	return a.res, topk.Stats{StopReason: "exhausted"}, nil
}

// BenchmarkClientSearch is one search round trip over loopback to a
// one-shard server whose algorithm answers a fixed top-10, so what it
// times and counts is the request path on both ends of the wire:
// allocs/op counts the client's and the server's allocations together.
func BenchmarkClientSearch(b *testing.B) {
	res := make(model.TopK, 10)
	for i := range res {
		res[i] = model.Result{Doc: model.DocID(i), Score: model.Score(100 - i)}
	}
	g, err := shardserve.New(shardserve.Config{}, shardserve.Shard{
		Replicas: []shardserve.Replica{{Alg: fixedAlg{res}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := shardrpc.Listen("127.0.0.1:0", g, shardrpc.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl := shardrpc.NewClient(srv.Addr().String(), shardrpc.Config{})
	defer cl.Close()
	q, opts := model.Query{1, 2, 3}, topk.Options{K: 10, Exact: true}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.SearchContext(ctx, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}
