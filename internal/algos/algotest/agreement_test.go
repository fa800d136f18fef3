package algotest_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/algos/bmw"
	"sparta/internal/algos/jass"
	"sparta/internal/bench"
	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/model"
	"sparta/internal/topk"
	"sparta/internal/xrand"
)

// TestAllExactAlgorithmsAgree is the repository's strongest correctness
// property: on randomized corpora and queries, every exact algorithm —
// sequential and parallel, document-order and score-order — must return
// brute force's top-k, scores included, with no resolution step. A bug
// in any cursor, bound, heap, completion or synchronization path shows
// up here.
func TestAllExactAlgorithmsAgree(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		seed := uint64(1000 + trial)
		spec := corpus.Spec{
			Name: "agree", Docs: 300 + trial*400, Vocab: 120 + trial*60,
			ZipfS:      0.8 + 0.1*float64(trial%3),
			MeanDocLen: 20 + trial*10, MinDocLen: 4,
			QualitySigma: float64(trial%3) * 0.7,
			Seed:         seed,
		}
		x := index.FromCorpus(corpus.New(spec))
		rng := xrand.New(seed * 7)
		for _, m := range []int{1, 3, 7} {
			k := 5 + rng.Intn(30)
			q := algotest.RandomQuery(x, m, seed+uint64(m))
			exact := topk.BruteForce(x, q, k)
			for _, id := range suiteAlgos {
				name := fmt.Sprintf("trial%d/m%d/k%d/%s", trial, m, k, id)
				got, _, err := makeAlgorithm(t, id, x, x).Search(q, topk.Options{
					K: k, Exact: true, Threads: 1 + trial%4, SegSize: 32 << (trial % 3),
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				algotest.AssertExact(t, name, exact, got)
			}
		}
	}
}

// probeQueries is the probe pool's query count.
var probeQueries = 200

// probe is the corpus and queries on which the NRA family's safe stop
// comes earliest, with brute force's answers: 20 000 documents and
// queries of 3–12 terms, read in segments of 16 postings. Built once.
var probe struct {
	once sync.Once
	x    *index.Index
	qs   []model.Query
	want []model.TopK
}

func probePool() (*index.Index, []model.Query, []model.TopK) {
	probe.once.Do(func() {
		probe.x = index.FromCorpus(corpus.New(corpus.Spec{
			Name: "probe", Docs: 20_000, Vocab: 2_000, ZipfS: 1.0,
			MeanDocLen: 60, MinDocLen: 5, Seed: 27,
		}))
		for i := range probeQueries {
			q := algotest.RandomQuery(probe.x, 3+i%10, uint64(2700+i))
			probe.qs = append(probe.qs, q)
			probe.want = append(probe.want, topk.BruteForce(probe.x, q, 10))
		}
	})
	return probe.x, probe.qs, probe.want
}

// TestNRAFamilyExactScores probes the NRA family where its safe stop
// comes earliest (probePool). The stop proves the top-k set while
// members' lower bounds may still miss terms whose postings lie below
// where their lists stopped; an exact answer must complete them (and
// sNRA's merge must then rank by true scores), so every answer is brute
// force's.
func TestNRAFamilyExactScores(t *testing.T) {
	x, qs, want := probePool()
	for _, id := range []bench.AlgoID{bench.AlgoNRA, bench.AlgoPNRA, bench.AlgoSNRA} {
		t.Run(string(id), func(t *testing.T) {
			alg := makeAlgorithm(t, id, x, x)
			for i, q := range qs {
				got, _, err := alg.Search(q, topk.Options{K: 10, Exact: true, Threads: 2, SegSize: 16})
				if err != nil {
					t.Fatalf("q%d: %v", i, err)
				}
				algotest.AssertExact(t, fmt.Sprintf("q%d (m=%d)", i, len(q)), want[i], got)
			}
		})
	}
}

// TestNRAFamilyDeltaSafeScores is the same probe with a Δ no query
// reaches instead of Exact, at Threads 1 and 4: a query that stops safe
// proved its set the way an exact one does, and its scores are completed
// the same way, so its answer is brute force's bytes. Each algorithm's
// safe answers must have made lookups, or the check says nothing; at
// Threads 1 the count is the same every run. pNRA runs the queries of
// up to 5 terms: at one thread it re-scans its whole docMap after every
// segment, and the longer ones take seconds each under -race.
func TestNRAFamilyDeltaSafeScores(t *testing.T) {
	x, qs, want := probePool()
	for _, id := range []bench.AlgoID{bench.AlgoPNRA, bench.AlgoNRA} {
		t.Run(string(id), func(t *testing.T) {
			alg := bench.MakeAlgorithm(id, x)
			var lookups int64
			for _, threads := range []int{1, 4} {
				safe := 0
				for i, q := range qs {
					if id == bench.AlgoPNRA && len(q) > 5 {
						continue
					}
					got, st, err := alg.Search(q, topk.Options{K: 10, Delta: time.Hour, Threads: threads, SegSize: 16})
					if err != nil {
						t.Fatalf("Threads %d q%d: %v", threads, i, err)
					}
					if st.StopReason != "safe" {
						continue
					}
					safe++
					lookups += st.RandomAccesses
					algotest.AssertExact(t, fmt.Sprintf("Threads %d q%d (m=%d)", threads, i, len(q)), want[i], got)
				}
				t.Logf("Threads %d: %d queries stopped safe", threads, safe)
			}
			if lookups == 0 {
				t.Fatal("no safe answer had a score to look up: the completion was not exercised")
			}
		})
	}
}

// TestApproximateVariantsNeverExceedExactWork checks the approximation
// contract across the family: an approximate run may stop early but
// must never traverse more postings than its exact sibling.
func TestApproximateVariantsNeverExceedExactWork(t *testing.T) {
	x := algotest.MediumIndex(t, 77)
	q := algotest.RandomQuery(x, 6, 99)

	type pair struct {
		name          string
		exact, approx topk.Options
		alg           topk.Algorithm
	}
	pairs := []pair{
		{"pJASS", topk.Options{K: 20, Exact: true, Threads: 4},
			topk.Options{K: 20, FracP: 0.2, Threads: 4}, jass.NewP(x)},
		{"pBMW", topk.Options{K: 20, Exact: true, Threads: 4},
			topk.Options{K: 20, BoostF: 4, Threads: 4}, bmw.NewPBMW(x)},
	}
	for _, p := range pairs {
		_, stE, err := p.alg.Search(q, p.exact)
		if err != nil {
			t.Fatal(err)
		}
		_, stA, err := p.alg.Search(q, p.approx)
		if err != nil {
			t.Fatal(err)
		}
		if stA.Postings > stE.Postings {
			t.Errorf("%s: approximate traversed more (%d) than exact (%d)",
				p.name, stA.Postings, stE.Postings)
		}
	}
}

// TestStatsSanity verifies the Stats contract every algorithm reports:
// nonzero duration, consistent posting counts, a stop reason.
func TestStatsSanity(t *testing.T) {
	x := algotest.SmallIndex(t, 88)
	q := algotest.RandomQuery(x, 4, 111)
	var total int64
	for _, term := range q {
		total += int64(x.DF(term))
	}
	for _, id := range suiteAlgos {
		alg := makeAlgorithm(t, id, x, x)
		_, st, err := alg.Search(q, topk.Options{K: 10, Exact: true, Threads: 2})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if st.Duration <= 0 {
			t.Errorf("%s: zero duration", alg.Name())
		}
		if st.StopReason == "" {
			t.Errorf("%s: empty stop reason", alg.Name())
		}
		// Document-order algorithms count cursor advances, which can
		// exceed raw posting counts slightly (SkipTo probes), but never
		// by more than a small factor.
		if st.Postings > 4*total {
			t.Errorf("%s: postings %d implausible (index total %d)", alg.Name(), st.Postings, total)
		}

		// A query with no terms has nothing to read: every algorithm
		// answers it empty, stopped "exhausted".
		res, st, err := alg.Search(model.Query{}, topk.Options{K: 10, Exact: true, Threads: 2})
		if err != nil || len(res) != 0 || st.StopReason != "exhausted" {
			t.Errorf("%s: empty query => %d results, stop %q, err %v; want 0, \"exhausted\", nil", alg.Name(), len(res), st.StopReason, err)
		}
	}
}
