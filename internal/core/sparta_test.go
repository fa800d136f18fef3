package core

import (
	"errors"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestSpartaExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	s := New(x)
	for _, m := range []int{1, 2, 3, 5, 8, 12} {
		for _, threads := range []int{1, 2, 4} {
			q := algotest.RandomQuery(x, m, uint64(m*10+threads))
			exact := topk.BruteForce(x, q, 20)
			got, st, err := s.Search(q, topk.Options{K: 20, Exact: true, Threads: threads, SegSize: 64})
			if err != nil {
				t.Fatalf("m=%d threads=%d: %v", m, threads, err)
			}
			algotest.AssertExact(t, "Sparta", exact, got)
			if st.StopReason != "safe" {
				t.Errorf("m=%d threads=%d stop=%q, want safe", m, threads, st.StopReason)
			}
		}
	}
}

func TestSpartaExactMediumEarlyStops(t *testing.T) {
	x := algotest.MediumIndex(t, 2)
	s := NewWithConfig(x, Config{Phi: 500})
	q := algotest.RandomQuery(x, 5, 77)
	exact := topk.BruteForce(x, q, 10)
	got, st, err := s.Search(q, topk.Options{K: 10, Exact: true, Threads: 4, SegSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta", exact, got)
	var total int64
	for _, term := range q {
		total += int64(x.DF(term))
	}
	if st.Postings >= total {
		t.Logf("note: Sparta scanned all postings (%d of %d) — no early stop on this data", st.Postings, total)
	}
	if st.Cleanings == 0 {
		t.Error("cleaner never ran")
	}
}

func TestSpartaApproximateRecall(t *testing.T) {
	x := algotest.MediumIndex(t, 3)
	s := New(x)
	q := algotest.RandomQuery(x, 8, 99)
	exact := topk.BruteForce(x, q, 50)
	// Δ is generous so the test stays meaningful under the race
	// detector's ~10x slowdown (a tight Δ elapses spuriously there).
	got, st, err := s.Search(q, topk.Options{K: 50, Delta: 20 * time.Millisecond, Threads: 4, SegSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rec := model.Recall(exact, got)
	if rec < 0.5 {
		t.Errorf("approximate recall %v too low (stop=%s)", rec, st.StopReason)
	}
	if st.StopReason != "delta" && st.StopReason != "safe" && st.StopReason != "exhausted" {
		t.Errorf("stop reason %q", st.StopReason)
	}
}

func TestSpartaSingleTerm(t *testing.T) {
	x := algotest.SmallIndex(t, 4)
	s := New(x)
	q := model.Query{0}
	exact := topk.BruteForce(x, q, 15)
	got, _, err := s.Search(q, topk.Options{K: 15, Exact: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta", exact, got)
}

func TestSpartaEmptyQuery(t *testing.T) {
	x := algotest.SmallIndex(t, 5)
	s := New(x)
	got, st, err := s.Search(model.Query{}, topk.Options{K: 10, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || st.StopReason != "exhausted" {
		t.Errorf("empty query => %d results, stop=%q", len(got), st.StopReason)
	}
}

func TestSpartaFewerThanK(t *testing.T) {
	x := algotest.SmallIndex(t, 6)
	s := New(x)
	var rare model.TermID
	minDF := 1 << 30
	for tid := 0; tid < x.NumTerms(); tid++ {
		if df := x.DF(model.TermID(tid)); df > 0 && df < minDF {
			minDF = df
			rare = model.TermID(tid)
		}
	}
	q := model.Query{rare}
	exact := topk.BruteForce(x, q, 1000)
	got, _, err := s.Search(q, topk.Options{K: 1000, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exact) {
		t.Errorf("returned %d, want %d", len(got), len(exact))
	}
	algotest.AssertExact(t, "Sparta", exact, got)
}

func TestSpartaDuplicateTerms(t *testing.T) {
	x := algotest.SmallIndex(t, 7)
	s := New(x)
	q := model.Query{2, 2, 5}
	exact := topk.BruteForce(x, q, 10)
	got, _, err := s.Search(q, topk.Options{K: 10, Exact: true, Threads: 3, SegSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta", exact, got)
}

func TestSpartaMoreThreadsThanTerms(t *testing.T) {
	x := algotest.SmallIndex(t, 8)
	s := New(x)
	q := algotest.RandomQuery(x, 2, 21)
	exact := topk.BruteForce(x, q, 10)
	got, _, err := s.Search(q, topk.Options{K: 10, Exact: true, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta", exact, got)
}

func TestSpartaMemoryBudget(t *testing.T) {
	x := algotest.MediumIndex(t, 9)
	s := New(x)
	q := algotest.RandomQuery(x, 5, 31)
	b := membudget.New(2000)
	_, st, err := s.Search(q, topk.Options{K: 100, Exact: true, Threads: 4, Budget: b})
	if !errors.Is(err, membudget.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	if st.StopReason != "oom" {
		t.Errorf("stop = %q, want oom", st.StopReason)
	}
	if b.Used() != 0 {
		t.Errorf("budget leak: %d bytes", b.Used())
	}
}

func TestSpartaBudgetReleasedOnSuccess(t *testing.T) {
	x := algotest.SmallIndex(t, 10)
	s := New(x)
	q := algotest.RandomQuery(x, 3, 37)
	b := membudget.New(1 << 30)
	if _, _, err := s.Search(q, topk.Options{K: 10, Exact: true, Threads: 2, Budget: b}); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 0 {
		t.Errorf("budget leak: %d bytes", b.Used())
	}
}

func TestSpartaCleanerShrinksMap(t *testing.T) {
	x := algotest.MediumIndex(t, 11)
	s := New(x)
	q := algotest.RandomQuery(x, 6, 41)
	_, st, err := s.Search(q, topk.Options{K: 10, Exact: true, Threads: 4, SegSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if st.CandidatesPeak == 0 {
		t.Error("no candidates tracked")
	}
	if st.Cleanings == 0 {
		t.Error("cleaner never ran")
	}
}

func TestSpartaTermMapActivation(t *testing.T) {
	// With Phi large, termMaps activate as soon as UBStop holds; the
	// run must still be exact.
	x := algotest.MediumIndex(t, 12)
	q := algotest.RandomQuery(x, 4, 43)
	exact := topk.BruteForce(x, q, 10)
	got, _, err := NewWithConfig(x, Config{Phi: 1 << 30}).Search(q, topk.Options{K: 10, Exact: true, Threads: 4, SegSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(Phi=inf)", exact, got)
	// And with Phi = 1 termMaps never activate (a cleaned map holds at
	// least the heap); still exact.
	got2, _, err := NewWithConfig(x, Config{Phi: 1}).Search(q, topk.Options{K: 10, Exact: true, Threads: 4, SegSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(Phi=1)", exact, got2)
}

func TestSpartaRecallProbe(t *testing.T) {
	x := algotest.MediumIndex(t, 13)
	s := New(x)
	q := algotest.RandomQuery(x, 5, 47)
	exact := topk.BruteForce(x, q, 20)
	probe := topk.NewRecallProbe(exact)
	probe.MinInterval = 0
	got, _, err := s.Search(q, topk.Options{K: 20, Exact: true, Threads: 4, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	pts := probe.Series().Points()
	if len(pts) < 2 {
		t.Fatalf("probe points = %d", len(pts))
	}
	if final := pts[len(pts)-1].Value; final != 1 {
		t.Errorf("final recall %v, want 1 (result recall %v)", final, model.Recall(exact, got))
	}
}

func TestSpartaRepeatedRunsDeterministicSet(t *testing.T) {
	// Thread interleaving varies, but the exact variant must always
	// return the same document set.
	x := algotest.SmallIndex(t, 14)
	s := New(x)
	q := algotest.RandomQuery(x, 6, 53)
	exact := topk.BruteForce(x, q, 25)
	for i := 0; i < 10; i++ {
		got, _, err := s.Search(q, topk.Options{K: 25, Exact: true, Threads: 4, SegSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "Sparta", exact, got)
	}
}

func TestSpartaStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	x := algotest.MediumIndex(t, 15)
	s := New(x)
	for i := 0; i < 8; i++ {
		m := 2 + i%7
		q := algotest.RandomQuery(x, m, uint64(61+i))
		exact := topk.BruteForce(x, q, 100)
		got, _, err := s.Search(q, topk.Options{K: 100, Exact: true, Threads: 1 + i%6, SegSize: 32 << (i % 3)})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "Sparta", exact, got)
	}
}
