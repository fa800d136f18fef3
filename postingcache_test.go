package sparta_test

import (
	"sync"
	"testing"

	"sparta"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/queries"
)

// TestPostingCacheHitRateOnZipfianLog is the tentpole's serving-side
// acceptance check: on a Zipfian query log — the regime hot-term
// caching is for — a 16 MB decoded-block cache must absorb more than
// half of all block lookups.
func TestPostingCacheHitRateOnZipfianLog(t *testing.T) {
	mem := index.FromCorpus(corpus.New(corpus.Spec{
		Name: "zipf", Docs: 8000, Vocab: 2000, ZipfS: 1.0,
		MeanDocLen: 80, MinDocLen: 5, Seed: 7,
	}))
	disk, err := diskindex.FromIndex(mem, diskindex.DefaultShards, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := sparta.NewPostingCache(16 << 20)
	disk.SetPostingCache(cache)

	s := sparta.NewSearcher(sparta.New(disk), sparta.SearcherConfig{PostingCache: cache})
	log := queries.Generate(disk, 6, 40, 11).Length(4)
	// First pass warms the cache through two-touch admission (a block
	// must be seen twice before it is cached); the hit-rate bar applies
	// to the steady state after it.
	for _, q := range log {
		if _, _, err := s.Search(q, sparta.Options{K: 10, Exact: true, Threads: 4}); err != nil {
			t.Fatal(err)
		}
	}
	cache.ResetStats()
	for _, q := range log {
		if _, _, err := s.Search(q, sparta.Options{K: 10, Exact: true, Threads: 4}); err != nil {
			t.Fatal(err)
		}
	}

	c := s.Counters()
	if c.CacheHits == 0 || c.CacheMisses == 0 {
		t.Fatalf("degenerate counters: %d hits, %d misses", c.CacheHits, c.CacheMisses)
	}
	if rate := c.CacheHitRate(); rate <= 0.5 {
		t.Errorf("hit rate %.3f on a Zipfian log, want > 0.5 (hits %d, misses %d)",
			rate, c.CacheHits, c.CacheMisses)
	}
	if c.CacheBytes > 16<<20 {
		t.Errorf("cache holds %d bytes, budget 16 MB", c.CacheBytes)
	}
}

// TestPostingCacheBudgetUnderConcurrency hammers one deliberately tiny
// cache from many concurrent Searcher queries and requires that the
// membudget limit holds at every observation point — insertion races,
// evictions and all.
func TestPostingCacheBudgetUnderConcurrency(t *testing.T) {
	mem := index.FromCorpus(corpus.New(corpus.Spec{
		Name: "conc", Docs: 4000, Vocab: 600, ZipfS: 1.0,
		MeanDocLen: 50, MinDocLen: 5, Seed: 13,
	}))
	disk, err := diskindex.FromIndex(mem, diskindex.DefaultShards, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	const limit = 128 << 10 // far smaller than the working set: constant eviction
	cache := sparta.NewPostingCache(limit)
	disk.SetPostingCache(cache)
	s := sparta.NewSearcher(sparta.New(disk), sparta.SearcherConfig{
		MaxConcurrent: 8, PostingCache: cache,
	})

	log := queries.Generate(disk, 6, 48, 17).Length(5)
	stop := make(chan struct{})
	var watchdog sync.WaitGroup
	watchdog.Add(1)
	go func() { // budget watchdog sampling concurrently with the queries
		defer watchdog.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if used := cache.Budget().Used(); used > limit {
				t.Errorf("budget used %d exceeds limit %d", used, limit)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(log); i += 8 {
				if _, _, err := s.Search(log[i], sparta.Options{K: 10, Exact: true, Threads: 2}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	watchdog.Wait()

	st := cache.Snapshot()
	if st.Bytes > limit {
		t.Errorf("final cache bytes %d exceed limit %d", st.Bytes, limit)
	}
	if st.Bytes != cache.Budget().Used() {
		t.Errorf("bytes gauge %d != budget used %d", st.Bytes, cache.Budget().Used())
	}
	if st.Evictions == 0 {
		t.Error("tiny budget saw no evictions; test is not stressing the limit")
	}
}
