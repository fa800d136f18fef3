package topk

import (
	"testing"
	"time"

	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/model"
)

func testView(t *testing.T) *index.Index {
	t.Helper()
	c := corpus.New(corpus.Spec{
		Name: "t", Docs: 400, Vocab: 200, ZipfS: 1.0,
		MeanDocLen: 30, MinDocLen: 4, Seed: 5,
	})
	return index.FromCorpus(c)
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.K != DefaultK || o.Threads != 1 || o.SegSize != DefaultSegSize ||
		o.BoostF != 1 || o.FracP != 1 {
		t.Errorf("defaults = %+v", o)
	}
	o2 := Options{K: 5, Threads: 3, BoostF: 2}.WithDefaults()
	if o2.K != 5 || o2.Threads != 3 || o2.BoostF != 2 {
		t.Error("explicit values overwritten by defaults")
	}
}

func TestUpperBounds(t *testing.T) {
	u := NewUpperBounds([]model.Score{100, 50, 80})
	if u.Sum() != 230 || u.Len() != 3 {
		t.Errorf("Sum = %d, Len = %d", u.Sum(), u.Len())
	}
	u.Set(0, 40)
	if u.Get(0) != 40 || u.Sum() != 170 {
		t.Errorf("after Set: Get=%d Sum=%d", u.Get(0), u.Sum())
	}
	buf := u.Snapshot(nil)
	if len(buf) != 3 || buf[0] != 40 || buf[2] != 80 {
		t.Errorf("Snapshot = %v", buf)
	}
	// Reuse path.
	buf2 := u.Snapshot(buf)
	if &buf2[0] != &buf[0] {
		t.Error("Snapshot reallocated despite sufficient cap")
	}
}

func TestBruteForceMatchesManualScoring(t *testing.T) {
	x := testView(t)
	q := model.Query{0, 1, 2}
	got := BruteForce(x, q, 10)
	// Manual accumulation.
	acc := make(map[model.DocID]model.Score)
	for _, term := range q {
		for _, p := range x.Postings(term) {
			acc[p.Doc] += p.Score
		}
	}
	all := make(model.TopK, 0, len(acc))
	for d, s := range acc {
		all = append(all, model.Result{Doc: d, Score: s})
	}
	all.Sort()
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, got[i], all[i])
		}
	}
	if len(got) != 10 {
		t.Errorf("len = %d, want 10", len(got))
	}
}

func TestBruteForceDuplicateTerms(t *testing.T) {
	// A term appearing twice contributes twice (additive model).
	x := testView(t)
	single := BruteForce(x, model.Query{3}, 5)
	double := BruteForce(x, model.Query{3, 3}, 5)
	for i := range single {
		if double[i].Score != 2*single[i].Score {
			t.Fatalf("duplicate term not additive at rank %d", i)
		}
	}
}

func TestBruteForceDefaultK(t *testing.T) {
	x := testView(t)
	got := BruteForce(x, model.Query{0}, 0)
	if len(got) > DefaultK {
		t.Errorf("len = %d exceeds DefaultK", len(got))
	}
}

func TestTermMaxima(t *testing.T) {
	x := testView(t)
	q := model.Query{0, 5, 9}
	m := TermMaxima(x, q)
	for i, term := range q {
		if m[i] != x.MaxScore(term) {
			t.Errorf("maxima[%d] = %d, want %d", i, m[i], x.MaxScore(term))
		}
	}
}

func TestRecallProbe(t *testing.T) {
	exact := model.TopK{{Doc: 1, Score: 30}, {Doc: 2, Score: 20}}
	p := NewRecallProbe(exact)
	p.MinInterval = 0
	p.Start()
	p.Observe(model.TopK{{Doc: 1, Score: 30}})
	time.Sleep(2 * time.Millisecond)
	p.Observe(exact)
	pts := p.Series().Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if pts[0].Value != 0.5 || pts[1].Value != 1.0 {
		t.Errorf("recall values = %v, %v", pts[0].Value, pts[1].Value)
	}
	if pts[1].At <= pts[0].At {
		t.Error("timestamps not increasing")
	}
}

// TestRecallProbeCountsADocumentOnce: ObserveInsert keeps each
// document's best score, so one fed again (JASS feeds its growing score
// after every posting) fills one slot of the accumulated top-k, not
// several.
func TestRecallProbeCountsADocumentOnce(t *testing.T) {
	exact := model.TopK{{Doc: 1, Score: 30}, {Doc: 2, Score: 20}}
	type feed struct {
		doc   model.DocID
		score model.Score
	}
	for _, tc := range []struct {
		name  string
		feeds []feed
		want  float64
	}{
		{"one doc twice", []feed{{1, 10}, {1, 30}}, 0.5},
		{"one doc growing", []feed{{1, 5}, {1, 6}, {1, 7}}, 0.5},
		{"lower score later", []feed{{1, 30}, {1, 10}}, 0.5},
		{"distinct docs", []feed{{1, 10}, {3, 15}, {1, 30}, {2, 20}}, 1},
		{"evicted, then back", []feed{{1, 5}, {3, 8}, {4, 9}, {1, 30}, {2, 20}}, 1},
		{"outsider grows past a member", []feed{{1, 30}, {2, 20}, {3, 1}, {3, 19}}, 1},
		{"member displaced", []feed{{1, 30}, {2, 10}, {3, 15}, {3, 18}}, 0.5},
	} {
		p := NewRecallProbe(exact)
		p.MinInterval = 0
		p.Start()
		for _, f := range tc.feeds {
			p.ObserveInsert(f.doc, f.score)
		}
		pts := p.Series().Points()
		if got := pts[len(pts)-1].Value; got != tc.want {
			t.Errorf("%s: recall %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRecallProbeRateLimit(t *testing.T) {
	p := NewRecallProbe(model.TopK{{Doc: 1, Score: 1}})
	p.MinInterval = time.Hour
	p.Start()
	for i := 0; i < 10; i++ {
		p.Observe(nil)
	}
	if got := len(p.Series().Points()); got != 1 {
		t.Errorf("rate-limited points = %d, want 1", got)
	}
	p.Final(model.TopK{{Doc: 1, Score: 1}})
	if got := len(p.Series().Points()); got != 2 {
		t.Errorf("Final must bypass rate limit; points = %d", got)
	}
}

func TestOptionsValidate(t *testing.T) {
	ok := []Options{
		{},
		{K: 10, Threads: 4, Exact: true},
		{K: 10, Delta: time.Millisecond},
		{BoostF: 5, FracP: 0.5},
		{Exact: true, BoostF: 1}, // f = 1 is the exact setting itself
		{Exact: true, FracP: 1},  // p = 1 likewise
		{SegSize: 64},
	}
	for i, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("valid[%d]: %v", i, err)
		}
	}
	bad := []Options{
		{K: -1},
		{Threads: -2},
		{Delta: -time.Second},
		{BoostF: 0.5},
		{FracP: 1.5},
		{FracP: -0.1},
		{Exact: true, Delta: time.Millisecond},
		{SegSize: -1},
		{Exact: true, BoostF: 2},
		{Exact: true, FracP: 0.5},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("invalid[%d] accepted: %+v", i, o)
		}
	}
}
