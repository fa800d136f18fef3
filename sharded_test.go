package sparta_test

import (
	"context"
	"testing"
	"time"

	"sparta"
	"sparta/internal/algos/algotest"
	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
)

func shardedTestIndex(tb testing.TB) *index.Index {
	tb.Helper()
	c := corpus.New(corpus.Spec{
		Name: "sharded", Docs: 3000, Vocab: 800, ZipfS: 1.0,
		MeanDocLen: 50, MinDocLen: 5, Seed: 321,
	})
	return index.FromCorpus(c)
}

// TestShardGroupSearcherMatchesExact: a Searcher over a shard group
// answers exactly, and the group keeps the per-shard surface — the
// breakdown, the counters, settlement and the per-shard metrics.
func TestShardGroupSearcherMatchesExact(t *testing.T) {
	x := shardedTestIndex(t)
	ram := iomodel.RAMConfig()
	g, err := sparta.ShardIndex(x, 4, func(v sparta.View) sparta.Algorithm {
		return sparta.New(v)
	}, sparta.ShardGroupConfig{IO: &ram, CacheBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := sparta.NewSearcher(g, sparta.SearcherConfig{MaxConcurrent: 4})
	q := popularQuery(5)
	const k = 10
	want := sparta.Exact(x, q, k)
	got, st, err := s.Search(q, sparta.Options{K: k, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.StopReason != sparta.StopMerged || st.ShardsDropped != 0 {
		t.Fatalf("stats = %+v, want merged with no drops", st)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %v, want %v\ngot  %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
	if c := s.Counters(); c.Queries != 1 {
		t.Fatalf("searcher counters = %+v, want 1 query", c)
	}
	if sc := g.AllCounters(); len(sc) != 4 || sc[0].Queries != 1 {
		t.Fatalf("shard counters = %+v, want 4 shards with 1 query each", sc)
	}
	algotest.AssertSettled(t, "between queries", g)

	// The per-shard breakdown path.
	_, sst, err := g.SearchShards(context.Background(), q, sparta.Options{K: k, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sst.Shards) != 4 {
		t.Fatalf("per-shard breakdown has %d entries, want 4", len(sst.Shards))
	}

	// Metrics registration covers both layers.
	r := sparta.NewMetricsRegistry()
	s.RegisterMetrics(r, "serve")
	g.RegisterMetrics(r, "serve")
	snap := r.Snapshot()
	if _, ok := snap["serve.queries"]; !ok {
		t.Fatalf("searcher metrics missing: %v", snap)
	}
	if _, ok := snap["serve.shard.0"]; !ok {
		t.Fatalf("shard metrics missing: %v", snap)
	}
}

// TestShardGroupSearcherTimeoutStillAnswers: shards that miss their
// timeout are dropped, the Searcher still answers, and the group is
// settled.
func TestShardGroupSearcherTimeoutStillAnswers(t *testing.T) {
	x := shardedTestIndex(t)
	slow := iomodel.Config{
		BlockSize:   256,
		CacheBlocks: 16,
		SeqLatency:  200 * time.Microsecond,
		RandLatency: time.Millisecond,
		SleepBatch:  time.Microsecond,
	}
	g, err := sparta.ShardIndex(x, 4, func(v sparta.View) sparta.Algorithm {
		return sparta.New(v)
	}, sparta.ShardGroupConfig{IO: &slow, ShardTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := sparta.NewSearcher(g, sparta.SearcherConfig{})
	got, st, err := s.Search(popularQuery(6), sparta.Options{K: 10, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDropped == 0 || st.StopReason != sparta.StopPartial {
		t.Fatalf("stats = %+v, want partial with dropped shards under a 1ms shard timeout", st)
	}
	if len(got) > 10 {
		t.Fatalf("got %d results, want <= k", len(got))
	}
	algotest.AssertSettled(t, "after deadline-dropped shards", g)
}

func TestSearcherRejectsUnattachedCache(t *testing.T) {
	x := shardedTestIndex(t)
	cache := sparta.NewPostingCache(1 << 20)
	// Deliberately never attached: the in-memory index has nothing to
	// cache.
	s := sparta.NewSearcher(sparta.New(x), sparta.SearcherConfig{PostingCache: cache})
	_, _, err := s.Search(popularQuery(3), sparta.Options{K: 5})
	if err != sparta.ErrCacheNotAttached {
		t.Fatalf("err = %v, want ErrCacheNotAttached", err)
	}
	// model.Query zero-term path must not mask the validation either.
	if _, _, err := s.Search(model.Query{}, sparta.Options{}); err != sparta.ErrCacheNotAttached {
		t.Fatalf("err = %v, want ErrCacheNotAttached", err)
	}
}
