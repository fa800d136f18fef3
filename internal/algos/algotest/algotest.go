// Package algotest provides the shared correctness harness for the
// retrieval algorithms: randomized corpora, query generation, and the
// exactness / recall assertions every algorithm package's tests use.
package algotest

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/model"
	"sparta/internal/topk"
	"sparta/internal/xrand"
)

// SmallIndex builds a deterministic ~400-doc index for fast tests.
func SmallIndex(tb testing.TB, seed uint64) *index.Index {
	tb.Helper()
	c := corpus.New(corpus.Spec{
		Name: "test", Docs: 400, Vocab: 150, ZipfS: 1.0,
		MeanDocLen: 40, MinDocLen: 5, Seed: seed,
	})
	return index.FromCorpus(c)
}

// MediumIndex builds a ~3000-doc index exercising longer lists.
func MediumIndex(tb testing.TB, seed uint64) *index.Index {
	tb.Helper()
	c := corpus.New(corpus.Spec{
		Name: "test", Docs: 3000, Vocab: 400, ZipfS: 1.0,
		MeanDocLen: 60, MinDocLen: 5, Seed: seed,
	})
	return index.FromCorpus(c)
}

// RandomQuery draws an m-term query biased toward popular terms, like
// real query logs (and like the repository's query generator).
func RandomQuery(x *index.Index, m int, seed uint64) model.Query {
	rng := xrand.New(seed)
	z := xrand.NewZipf(rng, 0.8, x.NumTerms())
	q := make(model.Query, 0, m)
	used := make(map[int]bool)
	for len(q) < m {
		t := z.Next()
		if used[t] {
			continue
		}
		used[t] = true
		q = append(q, model.TermID(t))
	}
	return q
}

// ExactMismatch checks got against want, the reference answer
// (topk.BruteForce), under the exactness contract of topk.Algorithm:
// scores equal rank by rank, documents equal above the cutoff score, any
// tied document admissible at the cutoff. It returns "" when got passes
// and what differs otherwise.
func ExactMismatch(want, got model.TopK) string {
	if len(got) != len(want) {
		return fmt.Sprintf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score {
			return fmt.Sprintf("rank %d score %d, want %d", i, got[i].Score, want[i].Score)
		}
		if want[i].Score > want[len(want)-1].Score && got[i].Doc != want[i].Doc {
			return fmt.Sprintf("rank %d doc %d, want %d (score %d)", i, got[i].Doc, want[i].Doc, want[i].Score)
		}
	}
	return ""
}

// AssertExact fails the test unless got is exact (see ExactMismatch).
func AssertExact(tb testing.TB, name string, want, got model.TopK) {
	tb.Helper()
	if msg := ExactMismatch(want, got); msg != "" {
		tb.Errorf("%s: %s\ngot  %v\nwant %v", name, msg, got, want)
	}
}

// AssertPartialTopK verifies the structural invariants an anytime
// partial result must satisfy regardless of how early it was cut off:
// at most k entries, scores sorted non-increasing, no duplicate
// documents, and no zero-score filler entries.
func AssertPartialTopK(tb testing.TB, name string, got model.TopK, k int) {
	tb.Helper()
	if len(got) > k {
		tb.Errorf("%s: partial result has %d entries, want <= %d", name, len(got), k)
	}
	seen := make(map[model.DocID]bool, len(got))
	for i, r := range got {
		if i > 0 && got[i-1].Score < r.Score {
			tb.Errorf("%s: results not sorted at %d: %d < %d", name, i, got[i-1].Score, r.Score)
		}
		if seen[r.Doc] {
			tb.Errorf("%s: duplicate doc %d in partial result", name, r.Doc)
		}
		seen[r.Doc] = true
		if r.Score <= 0 {
			tb.Errorf("%s: non-positive score %d for doc %d", name, r.Score, r.Doc)
		}
	}
}

// Settleable is anything that reports unpaid simulated-I/O latency:
// an iomodel.Store, a diskindex view's store, a shard group, a live
// index. The serving invariant is that the debt is zero whenever no
// query is in flight — on every completion path, including
// cancellation and background-work interruption.
type Settleable interface {
	Unsettled() time.Duration
}

// AssertSettled fails the test if s still owes simulated I/O. name
// labels the completion path being checked ("after query", "after
// cancelled compaction", ...).
func AssertSettled(tb testing.TB, name string, s Settleable) {
	tb.Helper()
	if owed := s.Unsettled(); owed != 0 {
		tb.Fatalf("%s: unsettled simulated I/O: %v", name, owed)
	}
}

// StressScheduling runs exact queries through alg over x at every
// Threads ∈ {1, 2, 4, 8} × GOMAXPROCS ∈ {1, 2, 4}, each under its own
// watchdog, and checks every answer against brute force. It is the
// lost-wake-up test of the event-driven background tasks (Sparta's
// cleaner, pNRA's stop checker): a wake-up lost between a pass's last
// look and its parking leaves the query waiting for ever, and the
// watchdog turns that into this query's failure instead of a timeout of
// the whole package. Tiny segments make events, and so park/wake
// hand-offs, as frequent as they get. check, when non-nil, sees every
// answer's statistics.
func StressScheduling(t *testing.T, x *index.Index, alg topk.Algorithm, check func(label string, st topk.Stats)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, threads := range []int{1, 2, 4, 8} {
			for i, m := range []int{1, 3, 6, 12, 6, 12} {
				q := RandomQuery(x, m, uint64(1000*procs+100*threads+10*i+m))
				opts := topk.Options{K: 10, Exact: true, Threads: threads, SegSize: 1 << (2 * (i % 4))}
				label := fmt.Sprintf("%s procs=%d threads=%d m=%d seg=%d", alg.Name(), procs, threads, m, opts.SegSize)
				type answer struct {
					res model.TopK
					st  topk.Stats
					err error
				}
				done := make(chan answer, 1) // the query's one send never blocks, even after a watchdog failure
				go func() {
					res, st, err := alg.Search(q, opts)
					done <- answer{res, st, err}
				}()
				select {
				case a := <-done:
					if a.err != nil {
						t.Fatalf("%s: %v", label, a.err)
					}
					AssertExact(t, label, topk.BruteForce(x, q, opts.K), a.res)
					if check != nil {
						check(label, a.st)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%s: query hung (lost wake-up?)", label)
				}
			}
		}
	}
}
