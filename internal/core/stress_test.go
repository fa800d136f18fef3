package core

import (
	"sync"
	"testing"

	"sparta/internal/algos/algotest"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// Stress tests for the shared-state machinery of §4.3: the cleaner's
// pointer swing racing worker lookups, the termMap handoff between
// workers, and concurrent queries over one index.

func TestSpartaConcurrentQueriesShareIndex(t *testing.T) {
	// Many Sparta instances run simultaneously against the same view;
	// each must stay exact. Exercises cross-query isolation (each run's
	// docMap/heap/UB are private; only the index is shared).
	x := algotest.MediumIndex(t, 51)
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := algotest.RandomQuery(x, 3+g%5, uint64(500+g))
			exact := topk.BruteForce(x, q, 15)
			got, _, err := New(x).Search(q, topk.Options{
				K: 15, Exact: true, Threads: 1 + g%4, SegSize: 64,
			})
			if err != nil {
				errCh <- err
				return
			}
			if rec := model.Recall(exact, got); rec != 1 {
				t.Errorf("goroutine %d: recall %v", g, rec)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestSpartaTinySegmentsMaximizeInterleaving(t *testing.T) {
	// SegSize 1 forces a queue round-trip per posting — the worst-case
	// interleaving for the cleaner swing and UB publication. Must stay
	// exact (slowly).
	x := algotest.SmallIndex(t, 52)
	q := algotest.RandomQuery(x, 6, 61)
	exact := topk.BruteForce(x, q, 10)
	got, st, err := New(x).Search(q, topk.Options{K: 10, Exact: true, Threads: 4, SegSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(seg=1)", exact, got)
	if st.Postings == 0 {
		t.Error("no postings")
	}
}

func TestSpartaTinyPhiForcesEarlyTermMaps(t *testing.T) {
	// A Φ above any map size: every list clones its termMap the moment
	// the cleaner has been over the docMap once, while the map is still
	// large — the replicas must carry the query to an exact finish
	// regardless. (Φ = 1 activates none: a cleaned map holds at least
	// the heap.)
	x := algotest.MediumIndex(t, 53)
	q := algotest.RandomQuery(x, 5, 67)
	exact := topk.BruteForce(x, q, 10)
	got, _, err := NewWithConfig(x, Config{Phi: 1 << 30}).Search(q, topk.Options{K: 10, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(phi=inf)", exact, got)
}

func TestSpartaK1(t *testing.T) {
	// k=1 is the degenerate heap: Θ jumps to the top score immediately.
	x := algotest.SmallIndex(t, 54)
	q := algotest.RandomQuery(x, 4, 71)
	exact := topk.BruteForce(x, q, 1)
	got, _, err := New(x).Search(q, topk.Options{K: 1, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(k=1)", exact, got)
}

func TestSpartaKLargerThanCandidates(t *testing.T) {
	// K far beyond the candidate count: heap never fills, Θ stays 0,
	// UBStop never fires — termination must come from exhaustion.
	x := algotest.SmallIndex(t, 55)
	q := algotest.RandomQuery(x, 2, 73)
	exact := topk.BruteForce(x, q, 100000)
	got, st, err := New(x).Search(q, topk.Options{K: 100000, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exact) {
		t.Fatalf("returned %d, want %d", len(got), len(exact))
	}
	if st.StopReason != "safe" && st.StopReason != "exhausted" {
		t.Errorf("stop %q", st.StopReason)
	}
}

func TestSpartaManyTermsFewThreads(t *testing.T) {
	// 12 terms on 2 threads: each worker owns many lists over time; the
	// termMap ownership handoff through the job queue must stay sound.
	x := algotest.MediumIndex(t, 56)
	q := algotest.RandomQuery(x, 12, 79)
	exact := topk.BruteForce(x, q, 20)
	got, _, err := NewWithConfig(x, Config{Phi: 1 << 30}).Search(q, topk.Options{K: 20, Exact: true, Threads: 2, SegSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(12t/2w)", exact, got)
}
