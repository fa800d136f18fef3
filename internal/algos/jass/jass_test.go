package jass

import (
	"errors"
	"testing"

	"sparta/internal/algos/algotest"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestJASSExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	a := New(x)
	for _, m := range []int{1, 2, 3, 5, 8} {
		q := algotest.RandomQuery(x, m, uint64(m))
		exact := topk.BruteForce(x, q, 20)
		got, st, err := a.Search(q, topk.Options{K: 20, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "JASS", exact, got)
		if st.StopReason != "exhausted" && st.StopReason != "fraction" {
			t.Errorf("stop = %q", st.StopReason)
		}
	}
}

func TestJASSExactScansEverything(t *testing.T) {
	// JASS's exact variant has no early termination (the paper calls it
	// inefficient, §6): it must traverse all postings.
	x := algotest.SmallIndex(t, 2)
	a := New(x)
	q := algotest.RandomQuery(x, 4, 9)
	var total int64
	for _, term := range q {
		total += int64(x.DF(term))
	}
	_, st, err := a.Search(q, topk.Options{K: 10, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Postings != total {
		t.Errorf("exact JASS scanned %d of %d postings", st.Postings, total)
	}
}

func TestJASSFractionReducesWork(t *testing.T) {
	x := algotest.MediumIndex(t, 3)
	a := New(x)
	q := algotest.RandomQuery(x, 5, 11)
	exact := topk.BruteForce(x, q, 50)
	_, stFull, err := a.Search(q, topk.Options{K: 50, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	gotHalf, stHalf, err := a.Search(q, topk.Options{K: 50, FracP: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if stHalf.Postings > stFull.Postings/2+1 {
		t.Errorf("p=0.5 scanned %d, full %d", stHalf.Postings, stFull.Postings)
	}
	if rec := model.Recall(exact, gotHalf); rec < 0.3 {
		t.Errorf("p=0.5 recall %v — score-order should find most of top-k early", rec)
	}
	if stHalf.StopReason != "fraction" {
		t.Errorf("stop = %q, want fraction", stHalf.StopReason)
	}
}

func TestJASSScoreOrderBeatsDocOrderEarly(t *testing.T) {
	// At a small p, score-order traversal should already capture some
	// of the top-k (the anytime property).
	x := algotest.MediumIndex(t, 4)
	a := New(x)
	q := algotest.RandomQuery(x, 4, 13)
	exact := topk.BruteForce(x, q, 20)
	got, _, err := a.Search(q, topk.Options{K: 20, FracP: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rec := model.Recall(exact, got); rec == 0 {
		t.Error("p=0.1 recall 0; impact ordering broken?")
	}
}

func TestPJASSExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 5)
	a := NewP(x)
	for _, threads := range []int{1, 2, 4} {
		q := algotest.RandomQuery(x, 4, uint64(threads+20))
		exact := topk.BruteForce(x, q, 20)
		got, _, err := a.Search(q, topk.Options{K: 20, Exact: true, Threads: threads, SegSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "pJASS", exact, got)
	}
}

func TestPJASSFraction(t *testing.T) {
	x := algotest.MediumIndex(t, 6)
	a := NewP(x)
	q := algotest.RandomQuery(x, 6, 31)
	exact := topk.BruteForce(x, q, 50)
	got, st, err := a.Search(q, topk.Options{K: 50, FracP: 0.3, Threads: 3, SegSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, term := range q {
		total += int64(x.DF(term))
	}
	// The fraction stop is approximate (segment granularity) but must
	// be well below a full scan.
	if st.Postings > total*2/3 {
		t.Errorf("p=0.3 scanned %d of %d", st.Postings, total)
	}
	if rec := model.Recall(exact, got); rec < 0.2 {
		t.Errorf("p=0.3 recall %v", rec)
	}
}

func TestPJASSNoPruningKeepsAllCandidates(t *testing.T) {
	// pJASS maintains the full document map throughout (§6) — its
	// candidate peak is the number of distinct docs in the lists.
	x := algotest.SmallIndex(t, 7)
	a := NewP(x)
	q := algotest.RandomQuery(x, 3, 37)
	distinct := make(map[model.DocID]bool)
	for _, term := range q {
		c := x.ScoreCursor(term)
		for c.Next() {
			distinct[c.Doc()] = true
		}
	}
	_, st, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.CandidatesPeak != int64(len(distinct)) {
		t.Errorf("candidates %d, want %d (no pruning)", st.CandidatesPeak, len(distinct))
	}
}

func TestPJASSMemoryBudget(t *testing.T) {
	x := algotest.MediumIndex(t, 8)
	a := NewP(x)
	q := algotest.RandomQuery(x, 5, 41)
	b := membudget.New(3000)
	_, st, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 3, Budget: b})
	if !errors.Is(err, membudget.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	if st.StopReason != "oom" {
		t.Errorf("stop = %q", st.StopReason)
	}
	if b.Used() != 0 {
		t.Errorf("budget leak: %d", b.Used())
	}
}

func TestJASSMemoryBudget(t *testing.T) {
	x := algotest.MediumIndex(t, 9)
	a := New(x)
	q := algotest.RandomQuery(x, 5, 43)
	b := membudget.New(3000)
	_, _, err := a.Search(q, topk.Options{K: 10, Exact: true, Budget: b})
	if !errors.Is(err, membudget.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	if b.Used() != 0 {
		t.Errorf("budget leak: %d", b.Used())
	}
}

func TestNames(t *testing.T) {
	x := algotest.SmallIndex(t, 10)
	if New(x).Name() != "JASS" || NewP(x).Name() != "pJASS" {
		t.Error("names wrong")
	}
}
