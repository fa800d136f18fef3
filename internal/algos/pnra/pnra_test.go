package pnra

import (
	"errors"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/cmap"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestPNRAExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	a := New(x)
	for _, m := range []int{1, 2, 3, 5, 8} {
		for _, threads := range []int{1, 2, 4} {
			q := algotest.RandomQuery(x, m, uint64(m*3+threads))
			exact := topk.BruteForce(x, q, 20)
			got, _, err := a.Search(q, topk.Options{K: 20, Exact: true, Threads: threads, SegSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			algotest.AssertExact(t, "pNRA", exact, got)
		}
	}
}

func TestPNRAExactMedium(t *testing.T) {
	x := algotest.MediumIndex(t, 2)
	a := New(x)
	q := algotest.RandomQuery(x, 5, 7)
	exact := topk.BruteForce(x, q, 50)
	got, st, err := a.Search(q, topk.Options{K: 50, Exact: true, Threads: 4, SegSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "pNRA", exact, got)
	if st.StopReason == "" {
		t.Error("no stop reason")
	}
}

func TestPNRANeverCleans(t *testing.T) {
	// The naive variant keeps every candidate it ever saw.
	x := algotest.MediumIndex(t, 3)
	a := New(x)
	q := algotest.RandomQuery(x, 4, 11)
	_, st, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cleanings != 0 {
		t.Errorf("pNRA cleaned %d times; it must never clean", st.Cleanings)
	}
	if st.CandidatesPeak < 10 {
		t.Errorf("implausible candidate peak %d", st.CandidatesPeak)
	}
}

func TestPNRADelta(t *testing.T) {
	x := algotest.MediumIndex(t, 4)
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

func TestPNRAMemoryBudget(t *testing.T) {
	x := algotest.MediumIndex(t, 5)
	a := New(x)
	q := algotest.RandomQuery(x, 5, 17)
	b := membudget.New(2000)
	_, st, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 3, Budget: b})
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

func TestPNRAUsesMoreMemoryThanSpartaWould(t *testing.T) {
	// Sanity: with no cleaning, candidates-peak equals total distinct
	// docs inserted before UBStop, typically far above k.
	x := algotest.MediumIndex(t, 6)
	a := New(x)
	q := algotest.RandomQuery(x, 6, 19)
	_, st, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.CandidatesPeak <= 10 {
		t.Errorf("peak %d <= k; expected a growing uncleaned map", st.CandidatesPeak)
	}
}

func TestPNRASchedulingStress(t *testing.T) {
	x := algotest.SmallIndex(t, 6)
	algotest.StressScheduling(t, x, New(x), nil)
}

// TestPNRAStoreReuse runs queries of every length back to back on one
// goroutine — each takes the candidate store the last one gave back,
// whether that one ended safe, out of memory or by Δ — and checks that
// every exact answer is still the exact set and the budget is level.
func TestPNRAStoreReuse(t *testing.T) {
	x := algotest.MediumIndex(t, 7)
	a := New(x)
	b := membudget.New(1 << 30)
	for round := 0; round < 3; round++ {
		for _, m := range []int{12, 1, 7, 2, 12, 3} {
			q := algotest.RandomQuery(x, m, uint64(100*round+m))
			exact := topk.BruteForce(x, q, 10)
			got, _, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 1 + round, Budget: b})
			if err != nil {
				t.Fatal(err)
			}
			algotest.AssertExact(t, "pNRA", exact, got)
			if b.Used() != 0 {
				t.Fatalf("budget holds %d bytes after an exact query", b.Used())
			}
			switch m {
			case 7: // a query that fails on its second candidate
				tiny := membudget.New(cmap.DocStateBytes)
				if _, _, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 2, Budget: tiny}); !errors.Is(err, membudget.ErrMemoryBudget) || tiny.Used() != 0 {
					t.Fatalf("err = %v with %d bytes held, want ErrMemoryBudget and none", err, tiny.Used())
				}
			case 3: // a query that Δ may cut short
				res, _, err := a.Search(q, topk.Options{K: 10, Delta: time.Microsecond, Threads: 2, Budget: b})
				if err != nil {
					t.Fatal(err)
				}
				algotest.AssertPartialTopK(t, "pNRA", res, 10)
			}
		}
	}
}
