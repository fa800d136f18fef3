package sparta_test

import (
	"testing"

	"sparta"
	"sparta/internal/algos/algotest"
	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// TestLiveIndexDropsIntoSearcher: a live index is an Algorithm, so a
// Searcher wraps it directly, and exact results match a fresh build of
// the same documents while ingest continues between queries.
func TestLiveIndexDropsIntoSearcher(t *testing.T) {
	c := corpus.New(corpus.Spec{
		Name: "live", Docs: 600, Vocab: 150, ZipfS: 1.0,
		MeanDocLen: 40, MinDocLen: 5, Seed: 77, QualitySigma: 0,
	})
	bags := make([][]corpus.TermCount, 600)
	for i := range bags {
		bags[i] = c.Doc(model.DocID(i))
	}

	live, err := sparta.OpenLive(t.TempDir(), sparta.LiveConfig{FlushDocs: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	s := sparta.NewSearcher(live, sparta.SearcherConfig{})

	build := func(n int) *index.Index {
		b := index.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddBag(bags[i])
		}
		return b.Build()
	}

	for _, n := range []int{250, 600} {
		start := 0
		if n == 600 {
			start = 250
		}
		for i := start; i < n; i++ {
			if _, err := live.AppendBag(bags[i]); err != nil {
				t.Fatal(err)
			}
		}
		fresh := build(n)
		q := algotest.RandomQuery(fresh, 4, uint64(n))
		want := topk.BruteForce(fresh, q, 10)
		got, st, err := s.Search(q, sparta.Options{K: 10, Threads: 2, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d results, want %d", n, len(got), len(want))
		}
		for r := range want {
			if got[r].Score != want[r].Score {
				t.Fatalf("n=%d rank %d: score %d, want %d (stop %q)", n, r, got[r].Score, want[r].Score, st.StopReason)
			}
		}
		algotest.AssertSettled(t, "searcher over live index", live)
	}
}
