// External test package: these tests drive the exported API with
// bench.MakeAlgorithm's algorithm family.
package shardserve_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/bench"
	"sparta/internal/core"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/metrics"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/postings"
	"sparta/internal/shardserve"
	"sparta/internal/topk"
)

// ramGroup partitions x into p shards on RAM stores, one replica each,
// served by factory's algorithm.
func ramGroup(t *testing.T, x *index.Index, p int, factory shardserve.Factory) *shardserve.Group {
	t.Helper()
	ram := iomodel.RAMConfig()
	g, err := shardserve.FromIndex(x, p, factory, shardserve.Config{IO: &ram})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// one is a shard with a single replica running alg.
func one(alg topk.Algorithm) shardserve.Shard {
	return shardserve.Shard{Replicas: []shardserve.Replica{{Alg: alg}}}
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

// TestShardedMatchesSingleIndexExact is the merge-equivalence property:
// for every exact algorithm and P ∈ {1,2,4,8}, the scatter/gather
// result equals the single-index reference — ids, scores, and order.
func TestShardedMatchesSingleIndexExact(t *testing.T) {
	x := algotest.MediumIndex(t, 420)
	queries := []model.Query{
		algotest.RandomQuery(x, 3, 17),
		algotest.RandomQuery(x, 7, 23),
	}
	for _, p := range []int{1, 2, 4, 8} {
		for _, id := range bench.AllAlgos {
			g := ramGroup(t, x, p, func(v postings.View) topk.Algorithm {
				return bench.MakeAlgorithm(id, v)
			})
			for qi, q := range queries {
				k := 10 + qi*15
				want := topk.BruteForce(x, q, k)
				name := fmt.Sprintf("P=%d/%s/q%d", p, id, qi)
				got, st, err := g.Search(q, topk.Options{K: k, Exact: true, Threads: 2})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if st.ShardsDropped != 0 {
					t.Fatalf("%s: ShardsDropped = %d, want 0", name, st.ShardsDropped)
				}
				if st.StopReason != shardserve.StopMerged {
					t.Fatalf("%s: StopReason = %q, want %q", name, st.StopReason, shardserve.StopMerged)
				}
				algotest.AssertExact(t, name, want, got)
			}
		}
	}
}

// TestResolveScoresAsksOnlyTheOwningShard: each document costs one
// random access per term, in the one shard whose range holds it, and a
// document outside every range costs none.
func TestResolveScoresAsksOnlyTheOwningShard(t *testing.T) {
	x := algotest.MediumIndex(t, 31)
	g := ramGroup(t, x, 4, func(v postings.View) topk.Algorithm {
		return core.New(v)
	})
	q := algotest.RandomQuery(x, 4, 9)
	want := topk.BruteForce(x, q, 20)
	docs := make([]model.DocID, len(want))
	for i, r := range want {
		docs[i] = r.Doc
	}
	scores, ra := g.ResolveScores(context.Background(), q, docs)
	for i, r := range want {
		if scores[i] != r.Score {
			t.Errorf("doc %d: resolved %d, want %d", r.Doc, scores[i], r.Score)
		}
	}
	if n := int64(len(docs) * len(q)); ra != n {
		t.Errorf("%d random accesses, want %d (one shard per document)", ra, n)
	}
	if _, ra := g.ResolveScores(context.Background(), q, []model.DocID{model.DocID(x.NumDocs() + 5)}); ra != 0 {
		t.Errorf("a document outside every shard cost %d random accesses, want 0", ra)
	}
}

// TestShardedApproxRecallNotWorse: approximate Sparta over shards must
// not lose recall versus the single-index run — each shard exhausts
// (or Δ-stops) independently, so the union can only know more.
//
// Δ is wall clock, and it also expires while a shard's workers are kept
// off the CPU. These queries finish in about a millisecond and stop
// safe, so a Δ of a second is armed on both sides but ends neither: a
// loaded scheduler would have to stall a shard for a whole second to
// cost it recall.
func TestShardedApproxRecallNotWorse(t *testing.T) {
	x := algotest.MediumIndex(t, 7)
	opts := topk.Options{K: 10, Threads: 4, Delta: time.Second}
	single := bench.MakeAlgorithm(bench.AlgoSparta, x)
	for _, q := range []model.Query{
		algotest.RandomQuery(x, 4, 31),
		algotest.RandomQuery(x, 8, 37),
	} {
		exact := topk.BruteForce(x, q, opts.K)
		sres, _, err := single.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 4} {
			g := ramGroup(t, x, p, func(v postings.View) topk.Algorithm {
				return core.New(v)
			})
			gres, st, err := g.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.ShardsDropped != 0 {
				t.Fatalf("P=%d: ShardsDropped = %d", p, st.ShardsDropped)
			}
			if sr, gr := model.Recall(exact, sres), model.Recall(exact, gres); gr < sr {
				t.Errorf("P=%d: sharded recall %v < single-index recall %v", p, gr, sr)
			}
		}
	}
}

// TestForcedDeadlineExpiry forces one shard's deadline to expire
// instantly, by wrapping that shard's replica in a nanosecond deadline:
// the query must still answer with ShardsDropped=1, a valid partial
// top-k that is exact over the surviving shards, and zero unsettled I/O
// on every shard store afterward.
func TestForcedDeadlineExpiry(t *testing.T) {
	x := algotest.MediumIndex(t, 99)
	const p, bad = 4, 2
	opened, err := shardserve.FromIndex(x, p, func(v postings.View) topk.Algorithm {
		return core.New(v)
	}, shardserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]shardserve.Shard, p)
	for i := range shards {
		shards[i] = opened.ShardInfo(i)
	}
	rep := shards[bad].Replicas[0]
	rep.Alg = expireAlg{rep.Alg, time.Nanosecond}
	shards[bad].Replicas = []shardserve.Replica{rep}
	g, err := shardserve.New(shardserve.Config{ShardTimeout: time.Second}, shards...)
	if err != nil {
		t.Fatal(err)
	}
	q := algotest.RandomQuery(x, 5, 555)
	const k = 10
	got, st, err := g.SearchShards(context.Background(), q, topk.Options{K: k, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDropped != 1 {
		t.Fatalf("ShardsDropped = %d, want 1 (%+v)", st.ShardsDropped, st.Shards)
	}
	if st.StopReason != shardserve.StopPartial {
		t.Fatalf("StopReason = %q, want %q", st.StopReason, shardserve.StopPartial)
	}
	if r := st.Shards[bad]; !r.Dropped || r.Stats.StopReason != topk.StopDeadline {
		t.Fatalf("shard %d run = %+v, want dropped with deadline stop", bad, r)
	}
	algotest.AssertPartialTopK(t, "forced-expiry", got, k)
	// The merged result must be exact over the surviving shards: strip
	// any bonus contributions from the expired shard's partial list,
	// and what remains must be a prefix of the reference ranking
	// restricted to the surviving shards' document ranges.
	lo, hi := postings.ShardRange(x.NumDocs(), bad, p)
	full := topk.BruteForce(x, q, x.NumDocs())
	want := make(model.TopK, 0, k)
	for _, r := range full {
		if r.Doc < lo || r.Doc >= hi {
			want = append(want, r)
			if len(want) == k {
				break
			}
		}
	}
	wi := 0
	for _, r := range got {
		if r.Doc >= lo && r.Doc < hi {
			continue // bonus contribution from the expired shard's partial list
		}
		if wi >= len(want) {
			t.Fatalf("more surviving-shard results than the reference has:\ngot  %v\nwant %v", got, want)
		}
		if r != want[wi] {
			t.Fatalf("surviving-shard results diverge: %v, want %v\ngot  %v\nwant %v",
				r, want[wi], got, want)
		}
		wi++
	}
	algotest.AssertSettled(t, "after query", g)
	if c := g.Counters(bad); c.DeadlineMisses != 1 {
		t.Fatalf("shard %d deadline misses = %d, want 1", bad, c.DeadlineMisses)
	}
}

// fakeAlg is a scriptable algorithm for serving-layer tests.
type fakeAlg struct {
	name      string
	delay     time.Duration
	res       model.TopK
	err       atomic.Pointer[error]
	calls     atomic.Int64
	cancelled atomic.Int64
}

func (f *fakeAlg) Name() string { return f.name }

func (f *fakeAlg) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return f.SearchContext(context.Background(), q, opts)
}

func (f *fakeAlg) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	f.calls.Add(1)
	if ep := f.err.Load(); ep != nil && *ep != nil {
		return nil, topk.Stats{StopReason: "error"}, *ep
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			f.cancelled.Add(1)
			return nil, topk.Stats{StopReason: topk.StopCancelled}, nil
		}
	}
	return f.res, topk.Stats{StopReason: "exhausted"}, nil
}

func TestHedgingWinsAndJoinsLoser(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	slow := &fakeAlg{name: "slow", delay: 200 * time.Millisecond,
		res: model.TopK{{Doc: 1, Score: 100}}}
	fast := &fakeAlg{name: "fast", res: model.TopK{{Doc: 2, Score: 200}}}
	g, err := shardserve.New(shardserve.Config{
		Hedge: shardserve.HedgeConfig{Enabled: true, MinDelay: 5 * time.Millisecond, Quantile: 0.9},
	}, shardserve.Shard{Replicas: []shardserve.Replica{{View: x, Alg: slow}, {View: x, Alg: fast}}})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := g.SearchShards(context.Background(), model.Query{0}, topk.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges = %d, wins = %d, want 1/1 (%+v)", st.Hedges, st.HedgeWins, st.Shards)
	}
	if len(got) != 1 || got[0].Doc != 2 {
		t.Fatalf("result = %v, want the replica's (doc 2)", got)
	}
	if slow.cancelled.Load() != 1 {
		t.Fatalf("losing primary cancelled %d times, want 1 (joined before return)", slow.cancelled.Load())
	}
	if c := g.Counters(0); c.Hedges != 1 || c.HedgeWins != 1 {
		t.Fatalf("shard counters = %+v, want 1 hedge / 1 win", c)
	}
}

func TestHedgeNotLaunchedWhenPrimaryFast(t *testing.T) {
	x := algotest.SmallIndex(t, 2)
	prim := &fakeAlg{name: "prim", res: model.TopK{{Doc: 1, Score: 100}}}
	repl := &fakeAlg{name: "repl", res: model.TopK{{Doc: 2, Score: 200}}}
	g, err := shardserve.New(shardserve.Config{
		Hedge: shardserve.HedgeConfig{Enabled: true, MinDelay: 250 * time.Millisecond},
	}, shardserve.Shard{Replicas: []shardserve.Replica{{View: x, Alg: prim}, {View: x, Alg: repl}}})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := g.SearchShards(context.Background(), model.Query{0}, topk.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hedges != 0 || repl.calls.Load() != 0 {
		t.Fatalf("hedge launched for a fast primary (hedges=%d, replica calls=%d)", st.Hedges, repl.calls.Load())
	}
}

func TestBreakerTripsSkipsAndRecovers(t *testing.T) {
	healthy := &fakeAlg{name: "ok", res: model.TopK{{Doc: 1, Score: 100}}}
	flaky := &fakeAlg{name: "flaky", res: model.TopK{{Doc: 300, Score: 90}}}
	boom := errors.New("shard down")
	flaky.err.Store(&boom)
	g, err := shardserve.New(shardserve.Config{TripAfter: 2, ProbeEvery: 4}, one(healthy), one(flaky))
	if err != nil {
		t.Fatal(err)
	}
	q := model.Query{0}
	opts := topk.Options{K: 5}

	// Two consecutive errors trip the breaker.
	for i := 0; i < 2; i++ {
		_, st, err := g.SearchShards(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.ShardsDropped != 1 || st.Shards[1].Err == nil {
			t.Fatalf("query %d: %+v, want shard 1 dropped with error", i, st.Shards)
		}
	}
	if !tripped(g, 1) {
		t.Fatal("breaker not tripped after TripAfter consecutive errors")
	}

	// Open breaker: queries skip the shard (no calls through) except probes.
	flakyCallsBefore := flaky.calls.Load()
	var skipped, probed int
	for i := 0; i < 8; i++ {
		_, st, err := g.SearchShards(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards[1].Skipped {
			skipped++
		} else {
			probed++
		}
		if st.ShardsDropped != 1 {
			t.Fatalf("tripped query %d: ShardsDropped = %d, want 1", i, st.ShardsDropped)
		}
	}
	if skipped == 0 || probed == 0 {
		t.Fatalf("skipped=%d probed=%d, want both (skip with periodic half-open probes)", skipped, probed)
	}
	if calls := flaky.calls.Load() - flakyCallsBefore; calls != int64(probed) {
		t.Fatalf("flaky shard saw %d calls, want %d (probes only)", calls, probed)
	}

	// Shard heals: the next successful probe closes the breaker.
	var noErr error
	flaky.err.Store(&noErr)
	for i := 0; i < 8 && tripped(g, 1); i++ {
		if _, _, err := g.SearchShards(context.Background(), q, opts); err != nil {
			t.Fatal(err)
		}
	}
	if tripped(g, 1) {
		t.Fatal("breaker did not close after a successful probe")
	}
	_, st, err := g.SearchShards(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDropped != 0 {
		t.Fatalf("after recovery: ShardsDropped = %d, want 0 (%+v)", st.ShardsDropped, st.Shards)
	}
}

// tripped reports whether shard i's primary replica is not closed.
func tripped(g *shardserve.Group, i int) bool {
	c := g.Counters(i)
	return c.Replicas[c.Primary].State != "closed"
}

func TestGroupValidation(t *testing.T) {
	if _, err := shardserve.New(shardserve.Config{}); err == nil {
		t.Fatal("empty group accepted")
	}
	x := algotest.SmallIndex(t, 4)
	if _, err := shardserve.New(shardserve.Config{}, shardserve.Shard{}); err == nil {
		t.Fatal("shard without replicas accepted")
	}
	if _, err := shardserve.New(shardserve.Config{}, shardserve.Shard{Replicas: []shardserve.Replica{{View: x}}}); err == nil {
		t.Fatal("replica without Alg accepted")
	}
	// A cache supplied but never attached to the view must be rejected.
	c := plcache.NewWithBudget(1 << 20)
	cached := shardserve.Shard{Replicas: []shardserve.Replica{{View: x, Alg: &fakeAlg{name: "a"}, Cache: c}}}
	if _, err := shardserve.New(shardserve.Config{}, cached); err == nil {
		t.Fatal("unattached cache accepted")
	}
	c.MarkAttached()
	if _, err := shardserve.New(shardserve.Config{}, cached); err != nil {
		t.Fatalf("attached cache rejected: %v", err)
	}
}

func TestFromIndexAttachesPerShardCaches(t *testing.T) {
	x := algotest.MediumIndex(t, 11)
	ram := iomodel.RAMConfig()
	g, err := shardserve.FromIndex(x, 3, func(v postings.View) topk.Algorithm {
		return core.New(v)
	}, shardserve.Config{IO: &ram, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	q := algotest.RandomQuery(x, 4, 77)
	// Two-touch admission: run the query three times so hot blocks are
	// remembered, admitted, then hit.
	for i := 0; i < 3; i++ {
		if _, _, err := g.Search(q, topk.Options{K: 10, Exact: true}); err != nil {
			t.Fatal(err)
		}
	}
	var hits int64
	for i := 0; i < g.NumShards(); i++ {
		if g.ShardInfo(i).Replicas[0].Cache == nil {
			t.Fatalf("shard %d: no cache attached", i)
		}
		hits += g.Counters(i).CacheHits
	}
	if hits == 0 {
		t.Fatal("no posting-cache hits across shards after repeated query")
	}
}

func TestRegisterMetrics(t *testing.T) {
	g, err := shardserve.New(shardserve.Config{}, one(&fakeAlg{name: "a", res: model.TopK{{Doc: 1, Score: 10}}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Search(model.Query{0}, topk.Options{K: 5}); err != nil {
		t.Fatal(err)
	}
	r := metrics.NewRegistry()
	g.RegisterMetrics(r, "serve")
	snap := r.Snapshot()
	if snap["serve.shards"] != 1 {
		t.Fatalf("serve.shards = %v", snap["serve.shards"])
	}
	sc, ok := snap["serve.shard.0"].(shardserve.ShardCounters)
	if !ok || sc.Queries != 1 {
		t.Fatalf("serve.shard.0 = %#v, want 1 query", snap["serve.shard.0"])
	}
}

func TestWriteDirOpenDirRoundTrip(t *testing.T) {
	x := algotest.MediumIndex(t, 13)
	dir := t.TempDir()
	if err := shardserve.WriteDir(x, 4, 0, dir); err != nil {
		t.Fatal(err)
	}
	ram := iomodel.RAMConfig()
	g, err := shardserve.OpenDir(dir, func(v postings.View) topk.Algorithm {
		return core.New(v)
	}, shardserve.Config{IO: &ram})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumShards() != 4 {
		t.Fatalf("opened %d shards, want 4", g.NumShards())
	}
	q := algotest.RandomQuery(x, 5, 101)
	const k = 10
	want := topk.BruteForce(x, q, k)
	got, st, err := g.Search(q, topk.Options{K: k, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDropped != 0 {
		t.Fatalf("ShardsDropped = %d", st.ShardsDropped)
	}
	algotest.AssertExact(t, "opendir", want, got)
}

func TestSearchShardsRespectsGlobalCancel(t *testing.T) {
	x := algotest.MediumIndex(t, 17)
	g := ramGroup(t, x, 2, func(v postings.View) topk.Algorithm {
		return core.New(v)
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, st, err := g.SearchShards(ctx, algotest.RandomQuery(x, 4, 3), topk.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.StopReason != topk.StopCancelled {
		t.Fatalf("StopReason = %q, want %q", st.StopReason, topk.StopCancelled)
	}
	algotest.AssertPartialTopK(t, "cancelled", got, 10)
	algotest.AssertSettled(t, "after cancelled query", g)
}

// TestConcurrentGroupQueriesExactAndSettled runs concurrent exact
// queries through one group: every merged answer must equal brute
// force, and the moment the last query returns no shard store may hold
// unsettled I/O.
func TestConcurrentGroupQueriesExactAndSettled(t *testing.T) {
	x := algotest.MediumIndex(t, 1234)
	const p, n = 4, 6
	ram := iomodel.RAMConfig()
	g, err := shardserve.FromIndex(x, p, func(v postings.View) topk.Algorithm {
		return bench.MakeAlgorithm(bench.AlgoSparta, v)
	}, shardserve.Config{IO: &ram, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}

	// Overlapping queries, so concurrent shard runs read the same blocks.
	queries := make([]model.Query, n)
	for i := range queries {
		queries[i] = algotest.RandomQuery(x, 4+i%3, uint64(60+i/2))
	}
	const k = 10
	results := make([]model.TopK, n)
	stats := make([]shardserve.ShardedStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range queries {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], stats[i], errs[i] = g.SearchShards(context.Background(), queries[i],
				topk.Options{K: k, Exact: true, Threads: 1})
		}()
	}
	wg.Wait()
	algotest.AssertSettled(t, "when the last query returned", g)

	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if stats[i].ShardsDropped != 0 {
			t.Fatalf("query %d: ShardsDropped = %d", i, stats[i].ShardsDropped)
		}
		algotest.AssertExact(t, fmt.Sprintf("concurrent/q%d", i), topk.BruteForce(x, q, k), results[i])
	}
}

// TestGroupEmptyQueryExhausted: a query with no terms gets the answer
// every single-index algorithm gives it — empty, stopped "exhausted" —
// and asks no shard.
func TestGroupEmptyQueryExhausted(t *testing.T) {
	a, b := &fakeAlg{name: "a"}, &fakeAlg{name: "b"}
	g, err := shardserve.New(shardserve.Config{}, one(a), one(b))
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := g.SearchShards(context.Background(), model.Query{}, topk.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || st.StopReason != "exhausted" || len(st.Shards) != 0 {
		t.Fatalf("%d results, stop %q, %d shard runs; want 0, exhausted, 0", len(res), st.StopReason, len(st.Shards))
	}
	if calls := a.calls.Load() + b.calls.Load(); calls != 0 {
		t.Fatalf("%d shard calls, want 0", calls)
	}
	if single, sst, _ := core.New(algotest.SmallIndex(t, 6)).Search(model.Query{}, topk.Options{K: 5}); len(single) != 0 || sst.StopReason != st.StopReason {
		t.Fatalf("single index answers %d results stopped %q; the group %q", len(single), sst.StopReason, st.StopReason)
	}
}

// stopAlg answers one result and reports the stop reason it was given.
type stopAlg struct{ reason string }

func (stopAlg) Name() string { return "stop" }

func (a stopAlg) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

func (a stopAlg) SearchContext(context.Context, model.Query, topk.Options) (model.TopK, topk.Stats, error) {
	return model.TopK{{Doc: 1, Score: 1}}, topk.Stats{StopReason: a.reason}, nil
}

// TestGroupStopReasonFoldsShards: a shard that stopped early shows in
// the group's stop reason, in either shard order; complete shards still
// merge, a dropped shard still makes the answer partial, and a cancelled
// query still reports the cancellation.
func TestGroupStopReasonFoldsShards(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()
	for _, c := range []struct {
		ctx    context.Context
		shards [2]string
		want   string
	}{
		{bg, [2]string{"delta", "safe"}, "delta"},
		{bg, [2]string{"safe", "exhausted"}, shardserve.StopMerged},
		{bg, [2]string{topk.StopDeadline, "delta"}, shardserve.StopPartial},
		{cancelled, [2]string{"safe", "safe"}, topk.StopCancelled},
	} {
		for _, order := range [][2]string{c.shards, {c.shards[1], c.shards[0]}} {
			g, err := shardserve.New(shardserve.Config{}, one(stopAlg{order[0]}), one(stopAlg{order[1]}))
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := g.SearchShards(c.ctx, model.Query{0}, topk.Options{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if st.StopReason != c.want {
				t.Errorf("shards stopped %v: group stop %q, want %q", order, st.StopReason, c.want)
			}
		}
	}
}
