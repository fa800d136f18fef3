package core

import (
	"testing"

	"sparta/internal/algos/algotest"
	"sparta/internal/topk"
)

// The ablation configurations must not change the exact result set —
// they only trade performance (DESIGN.md §4).

func TestAblationUBEveryPostingStillExact(t *testing.T) {
	x := algotest.MediumIndex(t, 21)
	s := NewWithConfig(x, Config{UBEveryPosting: true})
	q := algotest.RandomQuery(x, 6, 5)
	exact := topk.BruteForce(x, q, 20)
	got, _, err := s.Search(q, topk.Options{K: 20, Exact: true, Threads: 4, SegSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(UBEvery)", exact, got)
}

func TestAblationNoCleanerShrinkStillExact(t *testing.T) {
	x := algotest.MediumIndex(t, 22)
	s := NewWithConfig(x, Config{NoCleanerShrink: true})
	q := algotest.RandomQuery(x, 5, 7)
	exact := topk.BruteForce(x, q, 20)
	got, st, err := s.Search(q, topk.Options{K: 20, Exact: true, Threads: 4, SegSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(NoClean)", exact, got)
	if st.StopReason != "exhausted" {
		t.Logf("note: NoCleanerShrink stopped via %q", st.StopReason)
	}
}

func TestAblationNoCleanerNeverShrinks(t *testing.T) {
	x := algotest.MediumIndex(t, 23)
	q := algotest.RandomQuery(x, 6, 9)
	_, stShrink, err := New(x).Search(q, topk.Options{K: 10, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, stNo, err := NewWithConfig(x, Config{NoCleanerShrink: true}).
		Search(q, topk.Options{K: 10, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Without cleaning the run cannot stop before exhaustion, so it
	// must traverse at least as many postings.
	if stNo.Postings < stShrink.Postings {
		t.Errorf("no-cleaner traversed %d < cleaner %d", stNo.Postings, stShrink.Postings)
	}
}

func TestAblationCombined(t *testing.T) {
	x := algotest.SmallIndex(t, 24)
	s := NewWithConfig(x, Config{UBEveryPosting: true, NoCleanerShrink: true})
	q := algotest.RandomQuery(x, 4, 11)
	exact := topk.BruteForce(x, q, 15)
	got, _, err := s.Search(q, topk.Options{K: 15, Exact: true, Threads: 3, SegSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(all-ablations)", exact, got)
}
