package algotest_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/algos/jass"
	"sparta/internal/bench"
	"sparta/internal/cmap"
	"sparta/internal/core"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// settleConfig charges real (tiny) latencies but sets the sleep batch
// out of reach, so every charge stays owed until someone settles it —
// the exact regime where an abandoned cursor leaves its I/O bill
// unpaid.
func settleConfig() iomodel.Config {
	return iomodel.Config{
		BlockSize:   4096,
		CacheBlocks: 16,
		SeqLatency:  200 * time.Nanosecond,
		RandLatency: 500 * time.Nanosecond,
		SleepBatch:  time.Hour,
	}
}

// TestEarlyTerminationPaysIOCharges asserts the execution layer's
// settlement guarantee: however a query ends — an approximate stop that
// abandons cursors mid-list, or an external cancellation — every
// simulated-I/O charge its readers accrued has been paid by the time
// the search returns.
func TestEarlyTerminationPaysIOCharges(t *testing.T) {
	x := algotest.MediumIndex(t, 321)
	disk, err := diskindex.FromIndex(x, 4, settleConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := disk.Store()
	q := algotest.RandomQuery(x, 5, 55)

	// pJASS with a small posting fraction stops long before its impact
	// cursors are exhausted.
	if _, _, err := jass.NewP(disk).Search(q, topk.Options{K: 10, FracP: 0.05, Threads: 4}); err != nil {
		t.Fatal(err)
	}
	algotest.AssertSettled(t, "pJASS early stop", store)

	// A context cancelled mid-evaluation abandons whatever the workers
	// held; the anytime contract returns a partial result, not an error,
	// and the bill must still be settled.
	ctx, cancel := context.WithCancel(context.Background())
	obs := &cancelAfterIO{cancel: cancel, after: 3}
	_, st, err := core.New(disk).SearchContext(ctx, q, topk.Options{K: 10, Exact: true, Threads: 4, Observer: obs})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertSettled(t, "cancelled query ("+string(st.StopReason)+")", store)

	if io := store.Snapshot(); io.SimulatedIO == 0 {
		t.Fatal("test charged no simulated I/O; settlement was not exercised")
	}
}

// cancelAfterIO cancels the query's context after a few physical
// fetches, guaranteeing cancellation strikes mid-traversal.
type cancelAfterIO struct {
	topk.NopObserver
	cancel context.CancelFunc
	after  int64
	seen   atomic.Int64
}

func (c *cancelAfterIO) IOFetch(time.Duration) {
	if c.seen.Add(1) == c.after {
		c.cancel()
	}
}

// TestCompletionStopPathsSettle covers every stop path of the
// algorithms that complete an exact answer's scores: a safe stop whose
// completion reads through doc cursors, a cancel that strikes during
// that completion, a cancel mid-traversal, and an out-of-memory stop.
// On each, the store is settled and the budget is back to zero.
func TestCompletionStopPathsSettle(t *testing.T) {
	// A corpus and query (found by search) on which every one of them,
	// at one thread, stops safe with members to complete.
	x := index.FromCorpus(corpus.New(corpus.Spec{
		Name: "settle", Docs: 8_000, Vocab: 800, ZipfS: 1.0,
		MeanDocLen: 60, MinDocLen: 5, Seed: 27,
	}))
	disk, err := diskindex.FromIndex(x, 4, settleConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := disk.Store()
	q := algotest.RandomQuery(x, 5, 52)
	want := topk.BruteForce(x, q, 10)
	// Sparta runs twice: at SegSize 16 its phase 2 ends when the docMap
	// is down to the heap, at the default SegSize it ends by lookups with
	// candidates outside the heap, and that completion is the one the
	// cancel strikes.
	for _, c := range []struct {
		name    string
		id      bench.AlgoID
		segSize int
		lookups bool
	}{
		{"Sparta", bench.AlgoSparta, 16, false},
		{"SpartaLookups", bench.AlgoSparta, topk.DefaultSegSize, true},
		{"pNRA", bench.AlgoPNRA, 16, false},
		{"NRA", bench.AlgoNRA, 16, false},
		{"sNRA", bench.AlgoSNRA, 16, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			budget := membudget.New(1 << 30)
			last := new(lastPass)
			opts := topk.Options{K: 10, Exact: true, Threads: 1, SegSize: c.segSize, Budget: budget, Observer: last}
			check := func(path string) {
				t.Helper()
				algotest.AssertSettled(t, path, store)
				if used := budget.Used(); used != 0 {
					t.Fatalf("%s: budget still holds %d bytes", path, used)
				}
			}
			checkLookups := func(path string) {
				t.Helper()
				if kept := last.kept.Swap(0); (kept > int64(opts.K)) != c.lookups {
					t.Fatalf("%s: the last cleaner pass kept %d candidates; ended by lookups %v, want %v", path, kept, !c.lookups, c.lookups)
				}
			}

			got, st, err := bench.MakeAlgorithm(c.id, disk).Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.RandomAccesses == 0 {
				t.Fatalf("no score was completed (stop %q): the completion path was not exercised", st.StopReason)
			}
			algotest.AssertExact(t, "safe", want, got)
			check("safe")
			checkLookups("safe")

			ctx, cancel := context.WithCancel(context.Background())
			v := &cancelAtCompletion{Index: disk, cancel: cancel}
			if _, _, err = bench.MakeAlgorithm(c.id, v).SearchContext(ctx, q, opts); err != nil {
				t.Fatal(err)
			}
			cancel()
			if v.opened.Load() == 0 {
				t.Fatal("no doc cursor opened: the cancel never struck during completion")
			}
			check("cancel during completion")
			checkLookups("cancel during completion")

			ctx, cancel = context.WithCancel(context.Background())
			mid := opts
			mid.Observer = &cancelAfterIO{cancel: cancel, after: 3}
			_, st, err = bench.MakeAlgorithm(c.id, disk).SearchContext(ctx, q, mid)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			check("cancel mid-traversal (" + st.StopReason + ")")

			oom := opts
			oom.Budget = membudget.New(4 * cmap.DocStateBytes)
			if _, _, err = bench.MakeAlgorithm(c.id, disk).Search(q, oom); !errors.Is(err, membudget.ErrMemoryBudget) {
				t.Fatalf("tiny budget: err %v, want ErrMemoryBudget", err)
			}
			if used := oom.Budget.Used(); used != 0 {
				t.Fatalf("oom: budget still holds %d bytes", used)
			}
			check("oom")
		})
	}

	// At Threads 4 the completion runs one term per worker. Whether a run
	// ends phase 2 by lookups, and so how many terms it completes, is the
	// scheduler's call: this query (found by search) completes two or more
	// terms in 40 runs of 40 at GOMAXPROCS 1, in 30 at GOMAXPROCS 4, and
	// in 5–16 of 20 beside a CPU-bound test. Every run must settle and
	// return brute force's answer — the cancel strikes only after the
	// stop is proved — and at least one of the 40 must have been struck
	// while completing two or more terms.
	t.Run("SpartaLookupsThreads4", func(t *testing.T) {
		q := algotest.RandomQuery(x, 8, 50)
		want := topk.BruteForce(x, q, 10)
		struck := 0
		for range 40 {
			budget := membudget.New(1 << 30)
			ctx, cancel := context.WithCancel(context.Background())
			v := &cancelAtCompletion{Index: disk, cancel: cancel}
			got, st, err := core.New(v).SearchContext(ctx, q, topk.Options{K: 10, Exact: true, Threads: 4, Budget: budget})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			path := "cancel during parallel completion (" + st.StopReason + ")"
			algotest.AssertExact(t, path, want, got)
			algotest.AssertSettled(t, path, store)
			if used := budget.Used(); used != 0 {
				t.Fatalf("%s: budget still holds %d bytes", path, used)
			}
			if v.opened.Load() >= 2 {
				struck++
			}
		}
		if struck == 0 {
			t.Fatal("no run was cancelled while completing two or more terms")
		}
	})
}

// lastPass records how many candidates Sparta's last cleaner pass kept:
// more than the heap holds only when the pass ended phase 2 by lookups.
type lastPass struct {
	topk.NopObserver
	kept atomic.Int64
}

func (o *lastPass) CleanerPass(kept, _ int) { o.kept.Store(int64(kept)) }

// cancelAtCompletion is an on-disk index whose bound form cancels the
// query the first time a doc-order cursor is opened: the NRA family
// opens doc cursors only to complete an answer's scores.
type cancelAtCompletion struct {
	*diskindex.Index
	cancel context.CancelFunc
	opened atomic.Int64
}

func (c *cancelAtCompletion) BindExec(ctx context.Context, onIO func(time.Duration), onStop func(), onCache func(bool)) (postings.View, func()) {
	bound, settle := c.Index.BindExec(ctx, onIO, onStop, onCache)
	return boundCancel{View: bound, c: c}, settle
}

type boundCancel struct {
	postings.View
	c *cancelAtCompletion
}

func (b boundCancel) DocCursor(t model.TermID) postings.DocCursor {
	b.c.opened.Add(1)
	b.c.cancel()
	return b.View.DocCursor(t)
}
