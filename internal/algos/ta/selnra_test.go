package ta

import (
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestSelNRAExactMatchesBruteForce(t *testing.T) {
	x := algotest.SmallIndex(t, 41)
	a := NewSelNRA(x)
	for _, m := range []int{1, 2, 3, 5, 8} {
		q := algotest.RandomQuery(x, m, uint64(300+m))
		exact := topk.BruteForce(x, q, 20)
		got, _, err := a.Search(q, topk.Options{K: 20, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, "SelNRA", exact, got)
	}
}

func TestSelNRAExactMedium(t *testing.T) {
	x := algotest.MediumIndex(t, 42)
	a := NewSelNRA(x)
	q := algotest.RandomQuery(x, 6, 77)
	exact := topk.BruteForce(x, q, 20)
	got, st, err := a.Search(q, topk.Options{K: 20, Exact: true, SegSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "SelNRA", exact, got)
	if st.Postings == 0 || st.CandidatesPeak == 0 {
		t.Error("no work recorded")
	}
}

func TestSelNRAAccessesVsNRA(t *testing.T) {
	// Yuan et al.'s claim, checked at reproduction scale: selective
	// sorted access should not need substantially more accesses than
	// round-robin NRA, and typically needs fewer. Averaged over queries
	// to smooth the per-query variance.
	x := algotest.MediumIndex(t, 43)
	var selTotal, nraTotal int64
	for i := 0; i < 8; i++ {
		q := algotest.RandomQuery(x, 5, uint64(400+i))
		_, stSel, err := NewSelNRA(x).Search(q, topk.Options{K: 10, Exact: true, SegSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		_, stNRA, err := NewNRA(x).Search(q, topk.Options{K: 10, Exact: true, SegSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		selTotal += stSel.Postings
		nraTotal += stNRA.Postings
	}
	t.Logf("accesses: SelNRA=%d NRA=%d (ratio %.2f)", selTotal, nraTotal,
		float64(selTotal)/float64(nraTotal))
	if selTotal > nraTotal*3/2 {
		t.Errorf("selective access used 50%%+ more postings (%d vs %d)", selTotal, nraTotal)
	}
}

func TestSelNRADelta(t *testing.T) {
	x := algotest.MediumIndex(t, 44)
	q := algotest.RandomQuery(x, 8, 88)
	exact := topk.BruteForce(x, q, 50)
	got, _, err := NewSelNRA(x).Search(q, topk.Options{K: 50, Delta: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rec := model.Recall(exact, got); rec < 0.4 {
		t.Errorf("approximate recall %v", rec)
	}
}

func TestSelNRASingleTerm(t *testing.T) {
	x := algotest.SmallIndex(t, 45)
	q := model.Query{0}
	exact := topk.BruteForce(x, q, 10)
	got, _, err := NewSelNRA(x).Search(q, topk.Options{K: 10, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "SelNRA", exact, got)
}
