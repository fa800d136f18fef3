// Chaos acceptance: a replicated group under a seeded fault schedule —
// transient errors on every replica, injected I/O latency and stuck
// reads, one permanently dark primary — must keep answering queries
// byte-identical to the unfaulted single-index reference, route around
// the dark replica by promotion, and leave zero unsettled simulated I/O
// after every query. Run under -race in CI.
package shardserve_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/core"
	"sparta/internal/diskindex"
	"sparta/internal/faultinject"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/postings"
	"sparta/internal/shardserve"
	"sparta/internal/topk"
)

// faultedGroup opens x as p shards × r replicas, each replica over its
// own independently charged store, with planFor's fault schedule bound
// to every (shard, replica) scope.
func faultedGroup(t *testing.T, x *index.Index, p, r int, io iomodel.Config,
	cfg shardserve.Config, planFor func(shard, replica int) faultinject.Plan) (*shardserve.Group, []*faultinject.Injector) {
	t.Helper()
	shards := make([]shardserve.Shard, p)
	var injs []*faultinject.Injector
	for s, part := range x.Partition(p) {
		built, err := diskindex.FromIndex(part, diskindex.DefaultShards, io)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := postings.ShardRange(x.NumDocs(), s, p)
		reps := make([]shardserve.Replica, r)
		for ri := range reps {
			di := built
			if ri > 0 {
				di = built.Reopen(io)
			}
			inj := faultinject.New(planFor(s, ri), s, ri)
			inj.BindStore(di.Store())
			reps[ri] = shardserve.Replica{View: di, Alg: inj.Wrap(core.New(di)), Store: di.Store()}
			injs = append(injs, inj)
		}
		shards[s] = shardserve.Shard{Replicas: reps, Lo: lo, Hi: hi}
	}
	g, err := shardserve.New(cfg, shards...)
	if err != nil {
		t.Fatal(err)
	}
	return g, injs
}

func TestChaosReplicatedServingStaysExact(t *testing.T) {
	x := algotest.MediumIndex(t, 4242)
	io := iomodel.Config{
		BlockSize: 4096, CacheBlocks: 256,
		SeqLatency: time.Microsecond, RandLatency: 4 * time.Microsecond,
		SleepBatch: 20 * time.Microsecond,
	}
	const p, r = 2, 3
	planFor := func(shard, replica int) faultinject.Plan {
		pl := faultinject.Plan{
			Seed:        4242,
			ErrRate:     0.10, // every replica drops 10% of attempts
			LatencyRate: 0.20, Latency: 10 * time.Microsecond,
			StuckRate: 0.02, StuckLatency: 2 * time.Millisecond,
		}
		if shard == 0 && replica == 0 {
			pl.Dark = true // shard 0's primary never answers
		}
		return pl
	}
	cfg := shardserve.Config{
		TripAfter: 3, ProbeEvery: 4,
		RetryMax: 6, RetryBackoff: 10 * time.Microsecond,
		Hedge: shardserve.HedgeConfig{Enabled: true, MinDelay: 300 * time.Microsecond},
	}
	g, injs := faultedGroup(t, x, p, r, io, cfg, planFor)

	const queries, k = 400, 10
	identical := 0
	for i := 0; i < queries; i++ {
		q := algotest.RandomQuery(x, 3+i%5, uint64(1000+i))
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
		algotest.AssertSettled(t, fmt.Sprintf("after query %d", i), g)
	}
	if frac := float64(identical) / queries; frac < 0.99 {
		t.Errorf("%.2f%% of queries byte-identical to the unfaulted reference, want >= 99%%", 100*frac)
	}

	// The dark primary was routed around: promoted away from, breaker
	// not closed, counters exported.
	c := g.Counters(0)
	if c.Promotions == 0 {
		t.Errorf("dark primary never promoted away: %+v", c)
	}
	if c.Replicas[0].State == "closed" {
		t.Errorf("dark replica's breaker still closed: %+v", c.Replicas[0])
	}
	if c.Retries == 0 {
		t.Error("no transient-error retries recorded under a 10%% error schedule")
	}
	var injected uint64
	for _, in := range injs {
		injected += in.InjectedErrors()
	}
	if injected == 0 {
		t.Fatal("no faults injected — the schedule is inert")
	}
	algotest.AssertSettled(t, "after chaos run", g)
}

// TestSettlementUnderRandomFaultSchedules is the settlement property:
// across ~1k randomized fault schedules — injected latency and stuck
// reads, hedged winners returning while losers are cancelled mid-I/O,
// shard deadlines expiring mid-read — every replica store settles to
// zero after every query.
func TestSettlementUnderRandomFaultSchedules(t *testing.T) {
	x := algotest.SmallIndex(t, 5)
	io := iomodel.Config{
		BlockSize: 1024, CacheBlocks: 8,
		SeqLatency: 2 * time.Microsecond, RandLatency: 8 * time.Microsecond,
		SleepBatch: 50 * time.Microsecond,
	}
	const seeds, perSeed = 10, 100
	for seed := 0; seed < seeds; seed++ {
		cfg := shardserve.Config{
			Hedge:        shardserve.HedgeConfig{Enabled: true, MinDelay: 50 * time.Microsecond},
			ShardTimeout: time.Duration(500+seed*300) * time.Microsecond,
			TripAfter:    4, ProbeEvery: 2,
			RetryBackoff: 5 * time.Microsecond,
		}
		planFor := func(shard, replica int) faultinject.Plan {
			return faultinject.Plan{
				Seed:        uint64(seed),
				ErrRate:     0.15,
				LatencyRate: 0.30, Latency: 30 * time.Microsecond,
				StuckRate: 0.10, StuckLatency: 500 * time.Microsecond,
			}
		}
		g, _ := faultedGroup(t, x, 2, 2, io, cfg, planFor)
		for i := 0; i < perSeed; i++ {
			q := algotest.RandomQuery(x, 2+i%4, uint64(seed*1000+i))
			if _, _, err := g.SearchShards(context.Background(), q, topk.Options{K: 5, Exact: i%2 == 0}); err != nil {
				t.Fatalf("seed %d query %d: %v", seed, i, err)
			}
			algotest.AssertSettled(t, fmt.Sprintf("seed %d query %d", seed, i), g)
		}
	}
}
