package pra

import (
	"errors"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestPRAExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	a := New(x)
	for _, m := range []int{1, 2, 3, 5, 8} {
		for _, threads := range []int{1, 2, 4} {
			q := algotest.RandomQuery(x, m, uint64(m*7+threads))
			exact := topk.BruteForce(x, q, 20)
			got, st, err := a.Search(q, topk.Options{K: 20, Exact: true, Threads: threads, SegSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			algotest.AssertExact(t, "pRA", exact, got)
			if m > 1 && st.RandomAccesses == 0 {
				t.Error("pRA did no random accesses")
			}
		}
	}
}

func TestPRAExactMedium(t *testing.T) {
	x := algotest.MediumIndex(t, 2)
	a := New(x)
	q := algotest.RandomQuery(x, 6, 11)
	exact := topk.BruteForce(x, q, 50)
	got, st, err := a.Search(q, topk.Options{K: 50, Exact: true, Threads: 4, SegSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "pRA", exact, got)
	if st.StopReason != "ubstop" && st.StopReason != "exhausted" {
		t.Errorf("stop = %q", st.StopReason)
	}
}

func TestPRADeltaApproximate(t *testing.T) {
	x := algotest.MediumIndex(t, 3)
	a := New(x)
	q := algotest.RandomQuery(x, 8, 13)
	exact := topk.BruteForce(x, q, 50)
	got, _, err := a.Search(q, topk.Options{K: 50, Delta: 2 * time.Millisecond, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec := model.Recall(exact, got); rec < 0.4 {
		t.Errorf("approximate recall %v", rec)
	}
}

func TestPRADedupFirstWins(t *testing.T) {
	// Every distinct doc must be fully scored exactly once: random
	// accesses == (distinct docs seen) * (m - 1).
	x := algotest.SmallIndex(t, 4)
	a := New(x)
	q := algotest.RandomQuery(x, 3, 17)
	_, st, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 4, SegSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.CandidatesPeak == 0 {
		t.Fatal("no docs seen")
	}
	want := st.CandidatesPeak * int64(len(q)-1)
	if st.RandomAccesses != want {
		t.Errorf("random accesses %d, want %d (each doc scored once)", st.RandomAccesses, want)
	}
}

func TestPRAMemoryBudget(t *testing.T) {
	x := algotest.MediumIndex(t, 5)
	a := New(x)
	q := algotest.RandomQuery(x, 4, 19)
	b := membudget.New(2000)
	_, st, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 2, Budget: b})
	if !errors.Is(err, membudget.ErrMemoryBudget) {
		t.Fatalf("err = %v", err)
	}
	if st.StopReason != "oom" {
		t.Errorf("stop = %q", st.StopReason)
	}
	if b.Used() != 0 {
		t.Errorf("budget leak: %d", b.Used())
	}
}

func TestPRASingleTerm(t *testing.T) {
	x := algotest.SmallIndex(t, 6)
	a := New(x)
	q := model.Query{1}
	exact := topk.BruteForce(x, q, 10)
	got, st, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "pRA", exact, got)
	if st.RandomAccesses != 0 {
		t.Errorf("single-term query did %d random accesses", st.RandomAccesses)
	}
}

func TestPRARepeatedRunsStable(t *testing.T) {
	x := algotest.SmallIndex(t, 7)
	a := New(x)
	q := algotest.RandomQuery(x, 5, 23)
	exact := topk.BruteForce(x, q, 15)
	for i := 0; i < 8; i++ {
		got, _, err := a.Search(q, topk.Options{K: 15, Exact: true, Threads: 4, SegSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "pRA", exact, got)
	}
}
