package ta

import (
	"errors"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestRAExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	a := NewRA(x)
	for _, m := range []int{1, 2, 3, 5, 8} {
		q := algotest.RandomQuery(x, m, uint64(m))
		exact := topk.BruteForce(x, q, 20)
		got, st, err := a.Search(q, topk.Options{K: 20, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "RA", exact, got)
		if st.Postings == 0 {
			t.Error("RA reported zero postings")
		}
		if m > 1 && st.RandomAccesses == 0 {
			t.Error("RA reported zero random accesses on multi-term query")
		}
	}
}

func TestNRAExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 2)
	a := NewNRA(x)
	for _, m := range []int{1, 2, 3, 5, 8} {
		q := algotest.RandomQuery(x, m, uint64(100+m))
		exact := topk.BruteForce(x, q, 20)
		got, _, err := a.Search(q, topk.Options{K: 20, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "NRA", exact, got)
	}
}

func TestNRAEarlyStopsOnMedium(t *testing.T) {
	x := algotest.MediumIndex(t, 3)
	a := NewNRA(x)
	q := algotest.RandomQuery(x, 4, 7)
	exact := topk.BruteForce(x, q, 10)
	got, st, err := a.Search(q, topk.Options{K: 10, Exact: true, SegSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "NRA", exact, got)
	var total int64
	for _, term := range q {
		total += int64(x.DF(term))
	}
	if st.StopReason == "safe" && st.Postings >= total {
		t.Errorf("NRA stopped 'safe' but scanned all %d postings", total)
	}
}

func TestRAEarlyStop(t *testing.T) {
	x := algotest.MediumIndex(t, 4)
	a := NewRA(x)
	q := algotest.RandomQuery(x, 3, 9)
	exact := topk.BruteForce(x, q, 10)
	got, st, err := a.Search(q, topk.Options{K: 10, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "RA", exact, got)
	if st.StopReason != "ubstop" {
		t.Logf("note: RA stop reason %q (ubstop expected on skewed data)", st.StopReason)
	}
}

func TestApproximateDeltaStops(t *testing.T) {
	x := algotest.MediumIndex(t, 5)
	q := algotest.RandomQuery(x, 6, 11)
	exact := topk.BruteForce(x, q, 50)
	for _, alg := range []topk.Algorithm{NewRA(x), NewNRA(x)} {
		got, _, err := alg.Search(q, topk.Options{K: 50, Delta: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		rec := model.Recall(exact, got)
		if rec < 0.5 {
			t.Errorf("%s approximate recall %v unexpectedly low", alg.Name(), rec)
		}
	}
}

func TestFewerThanKResults(t *testing.T) {
	x := algotest.SmallIndex(t, 6)
	// A 1-term query on a rare term yields fewer than K docs.
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
	for _, alg := range []topk.Algorithm{NewRA(x), NewNRA(x)} {
		got, _, err := alg.Search(q, topk.Options{K: 1000, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(exact) {
			t.Errorf("%s returned %d, want %d (df=%d)", alg.Name(), len(got), len(exact), minDF)
		}
	}
}

func TestMemoryBudgetAborts(t *testing.T) {
	x := algotest.MediumIndex(t, 7)
	q := algotest.RandomQuery(x, 5, 13)
	for _, alg := range []topk.Algorithm{NewRA(x), NewNRA(x)} {
		b := membudget.New(500) // a handful of candidates only
		_, st, err := alg.Search(q, topk.Options{K: 10, Exact: true, Budget: b})
		if !errors.Is(err, membudget.ErrMemoryBudget) {
			t.Errorf("%s error = %v, want ErrMemoryBudget", alg.Name(), err)
		}
		if st.StopReason != "oom" {
			t.Errorf("%s stop reason %q, want oom", alg.Name(), st.StopReason)
		}
		if b.Used() != 0 {
			t.Errorf("%s leaked %d budget bytes", alg.Name(), b.Used())
		}
	}
}

func TestBudgetReleasedOnSuccess(t *testing.T) {
	x := algotest.SmallIndex(t, 8)
	q := algotest.RandomQuery(x, 3, 17)
	b := membudget.New(1 << 30)
	a := NewNRA(x)
	if _, _, err := a.Search(q, topk.Options{K: 10, Exact: true, Budget: b}); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 0 {
		t.Errorf("budget leak: %d bytes", b.Used())
	}
	if b.Peak() == 0 {
		t.Error("peak should reflect candidate map usage")
	}
}

func TestRecallProbeObservations(t *testing.T) {
	x := algotest.MediumIndex(t, 9)
	q := algotest.RandomQuery(x, 4, 19)
	exact := topk.BruteForce(x, q, 20)
	probe := topk.NewRecallProbe(exact)
	probe.MinInterval = 0
	a := NewNRA(x)
	got, _, err := a.Search(q, topk.Options{K: 20, Exact: true, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	pts := probe.Series().Points()
	if len(pts) < 2 {
		t.Fatalf("probe recorded %d points", len(pts))
	}
	last := pts[len(pts)-1]
	if last.Value != model.Recall(exact, got) {
		t.Errorf("final probe recall %v != result recall", last.Value)
	}
	if last.Value != 1 {
		t.Errorf("exact NRA final recall %v, want 1", last.Value)
	}
}

func TestDuplicateTermQuery(t *testing.T) {
	x := algotest.SmallIndex(t, 10)
	q := model.Query{3, 3}
	exact := topk.BruteForce(x, q, 10)
	for _, alg := range []topk.Algorithm{NewRA(x), NewNRA(x)} {
		got, _, err := alg.Search(q, topk.Options{K: 10, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, alg.Name(), exact, got)
	}
}

func TestNames(t *testing.T) {
	x := algotest.SmallIndex(t, 11)
	if NewRA(x).Name() != "RA" || NewNRA(x).Name() != "NRA" {
		t.Error("algorithm names wrong")
	}
}
