package maxscore

import (
	"testing"

	"sparta/internal/algos/algotest"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestMaxScoreExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	a := New(x)
	for _, m := range []int{1, 2, 3, 5, 8, 12} {
		q := algotest.RandomQuery(x, m, uint64(m*13))
		exact := topk.BruteForce(x, q, 20)
		got, _, err := a.Search(q, topk.Options{K: 20, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "MaxScore", exact, got)
	}
}

func TestMaxScoreExactMedium(t *testing.T) {
	x := algotest.MediumIndex(t, 2)
	a := New(x)
	for _, m := range []int{3, 6} {
		q := algotest.RandomQuery(x, m, uint64(m*17))
		exact := topk.BruteForce(x, q, 50)
		got, st, err := a.Search(q, topk.Options{K: 50})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "MaxScore", exact, got)
		if st.Postings == 0 {
			t.Error("no postings counted")
		}
	}
}

func TestMaxScoreSkipsWork(t *testing.T) {
	// With a small k and skewed scores, MaxScore must not touch every
	// posting: the probe-with-abort path saves work.
	x := algotest.MediumIndex(t, 3)
	a := New(x)
	q := algotest.RandomQuery(x, 6, 29)
	var total int64
	for _, term := range q {
		total += int64(x.DF(term))
	}
	_, st, err := a.Search(q, topk.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Postings >= total {
		t.Logf("note: MaxScore traversed all %d postings (no skip opportunity on this data)", total)
	}
}

func TestMaxScoreSingleTerm(t *testing.T) {
	x := algotest.SmallIndex(t, 4)
	a := New(x)
	q := model.Query{2}
	exact := topk.BruteForce(x, q, 10)
	got, _, err := a.Search(q, topk.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "MaxScore", exact, got)
}

func TestMaxScoreDuplicateTerms(t *testing.T) {
	x := algotest.SmallIndex(t, 5)
	q := model.Query{1, 1, 4}
	exact := topk.BruteForce(x, q, 10)
	got, _, err := New(x).Search(q, topk.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "MaxScore", exact, got)
}

func TestMaxScoreFewerThanK(t *testing.T) {
	x := algotest.SmallIndex(t, 6)
	var rare model.TermID
	minDF := 1 << 30
	for tid := 0; tid < x.NumTerms(); tid++ {
		if df := x.DF(model.TermID(tid)); df > 0 && df < minDF {
			minDF = df
			rare = model.TermID(tid)
		}
	}
	exact := topk.BruteForce(x, model.Query{rare}, 1000)
	got, _, err := New(x).Search(model.Query{rare}, topk.Options{K: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exact) {
		t.Errorf("returned %d, want %d", len(got), len(exact))
	}
}

func TestMaxScoreName(t *testing.T) {
	if New(algotest.SmallIndex(t, 7)).Name() != "MaxScore" {
		t.Error("wrong name")
	}
}
