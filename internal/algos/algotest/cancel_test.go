// Cancellation-contract tests: every algorithm must honour
// SearchContext's anytime semantics — a cancelled or expired context
// ends the query early with the best-so-far partial top-k, the right
// StopReason, and a nil error.
//
// The tests live in package algotest_test (not algotest) because they
// instantiate the algorithms through the bench harness, which itself
// is a consumer of algotest.
package algotest_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/bench"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// slowIndex builds a disk-resident index over a deliberately punishing
// storage model (tiny blocks, near-empty cache, high latencies) so an
// uncancelled exact query takes far longer than the test's deadlines.
func slowIndex(tb testing.TB) (*index.Index, *diskindex.Index) {
	return slowStore(tb, false)
}

// slowStore is slowIndex's storage model; with noSleep it charges and
// reports every fetch the same way without sleeping the charges out.
func slowStore(tb testing.TB, noSleep bool) (*index.Index, *diskindex.Index) {
	tb.Helper()
	mem := algotest.MediumIndex(tb, 7)
	cfg := iomodel.Config{
		BlockSize:   256,
		CacheBlocks: 16,
		SeqLatency:  500 * time.Microsecond,
		RandLatency: 2 * time.Millisecond,
		SleepBatch:  time.Microsecond,
		NoSleep:     noSleep,
	}
	x, err := diskindex.FromIndex(mem, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return mem, x
}

func cancelOpts() topk.Options {
	return topk.Options{K: 100, Threads: 2, Exact: true, SegSize: 64}
}

// slowQuery targets the most popular terms — the longest posting lists,
// hence the slowest exact evaluation (the corpus generator's Zipf makes
// low term ids popular). Early-stopping conditions (ubstop, WAND
// convergence) cannot fire quickly at k=100 over these lists, so a
// mid-flight cancel reliably lands before any natural finish.
func slowQuery() model.Query {
	return model.Query{0, 1, 2, 3, 4, 5}
}

func TestPreCancelledContext(t *testing.T) {
	mem, x := slowIndex(t)
	q := algotest.RandomQuery(mem, 4, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range suiteAlgos {
		alg := makeAlgorithm(t, id, mem, x)
		res, st, err := alg.SearchContext(ctx, q, cancelOpts())
		if err != nil {
			t.Errorf("%s: pre-cancelled context returned error %v, want nil", id, err)
		}
		if st.StopReason != topk.StopCancelled {
			t.Errorf("%s: StopReason %q, want %q", id, st.StopReason, topk.StopCancelled)
		}
		algotest.AssertPartialTopK(t, string(id), res, cancelOpts().K)
	}
}

func TestExpiredDeadline(t *testing.T) {
	mem, x := slowIndex(t)
	q := algotest.RandomQuery(mem, 4, 12)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, id := range suiteAlgos {
		alg := makeAlgorithm(t, id, mem, x)
		res, st, err := alg.SearchContext(ctx, q, cancelOpts())
		if err != nil {
			t.Errorf("%s: expired deadline returned error %v, want nil", id, err)
		}
		if st.StopReason != topk.StopDeadline {
			t.Errorf("%s: StopReason %q, want %q", id, st.StopReason, topk.StopDeadline)
		}
		algotest.AssertPartialTopK(t, string(id), res, cancelOpts().K)
	}
}

func TestMidFlightCancel(t *testing.T) {
	mem, x := slowIndex(t)
	q := slowQuery()
	for _, id := range suiteAlgos {
		t.Run(string(id), func(t *testing.T) {
			alg := makeAlgorithm(t, id, mem, x)
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(500*time.Microsecond, cancel)
			start := time.Now()
			res, st, err := alg.SearchContext(ctx, q, cancelOpts())
			elapsed := time.Since(start)
			cancel()
			if err != nil {
				t.Fatalf("mid-flight cancel returned error %v, want nil", err)
			}
			if st.StopReason != topk.StopCancelled {
				t.Errorf("StopReason %q, want %q", st.StopReason, topk.StopCancelled)
			}
			// The slow index needs hundreds of milliseconds uncancelled;
			// a cancelled query must come back promptly (generous bound
			// for race-detector and loaded-CI runs).
			if elapsed > time.Second {
				t.Errorf("cancelled query took %v, want prompt return", elapsed)
			}
			algotest.AssertPartialTopK(t, string(id), res, cancelOpts().K)
		})
	}
}

func TestMidFlightDeadline(t *testing.T) {
	_, x := slowIndex(t)
	q := slowQuery()
	for _, id := range []bench.AlgoID{bench.AlgoSparta, bench.AlgoPBMW, bench.AlgoJASS} {
		alg := bench.MakeAlgorithm(id, x)
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		res, st, err := alg.SearchContext(ctx, q, cancelOpts())
		cancel()
		if err != nil {
			t.Fatalf("%s: deadline returned error %v, want nil", id, err)
		}
		if st.StopReason != topk.StopDeadline {
			t.Errorf("%s: StopReason %q, want %q", id, st.StopReason, topk.StopDeadline)
		}
		algotest.AssertPartialTopK(t, string(id), res, cancelOpts().K)
	}
}

// TestCancelledPartialIsPrefixQuality lets a query run long enough to
// accumulate results before cancelling, and checks the partial result
// is genuinely "best-so-far": structurally valid and non-empty.
func TestCancelledPartialIsPrefixQuality(t *testing.T) {
	_, x := slowIndex(t)
	q := slowQuery()
	for _, id := range []bench.AlgoID{bench.AlgoSparta, bench.AlgoRA, bench.AlgoPJASS} {
		alg := bench.MakeAlgorithm(id, x)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(60*time.Millisecond, cancel)
		res, st, err := alg.SearchContext(ctx, q, cancelOpts())
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if st.StopReason != topk.StopCancelled {
			// The query may legitimately finish before the cancel fires
			// on a fast machine; only the partial-shape check applies.
			t.Logf("%s finished before cancel (stop: %s)", id, st.StopReason)
		}
		algotest.AssertPartialTopK(t, string(id), res, cancelOpts().K)
		if st.StopReason == topk.StopCancelled && len(res) == 0 && st.Postings > 1000 {
			t.Errorf("%s: %d postings processed but empty partial result", id, st.Postings)
		}
	}
}

// TestObserverSeesExecution checks the Observer plumbing end to end on
// a disk-resident run of every algorithm: one QueryStart and one
// QueryFinish carrying the returned Stats, Duration included, I/O
// fetches, and a recall probe whose series ends with exactly one final
// point (the probe's rate limit keeps at most the first in-flight
// observation, one document of k, so recall below 1; the final point is
// the only one at the exact answer's recall of 1). Segment events come
// from exactly the algorithms the Observer contract names as
// schedulers, and Sparta's run also shows heap updates. The store
// charges without sleeping: RA's random accesses would sleep for
// seconds.
func TestObserverSeesExecution(t *testing.T) {
	// The algorithms that schedule no work (topk.Observer.SegmentScheduled).
	unscheduled := []bench.AlgoID{bench.AlgoRA, bench.AlgoNRA, bench.AlgoWAND, bench.AlgoBMW, bench.AlgoMaxScore}
	mem, x := slowStore(t, true)
	q := algotest.RandomQuery(mem, 4, 16)
	exact := topk.BruteForce(mem, q, cancelOpts().K)
	for _, id := range suiteAlgos {
		t.Run(string(id), func(t *testing.T) {
			var obs topk.RecordingObserver
			probe := topk.NewRecallProbe(exact)
			probe.MinInterval = time.Hour
			opts := cancelOpts()
			opts.Observer = &obs
			opts.Probe = probe
			res, st, err := makeAlgorithm(t, id, mem, x).SearchContext(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) == 0 {
				t.Fatal("no results")
			}
			if obs.Queries() != 1 || obs.Finishes() != 1 {
				t.Errorf("observer saw %d starts / %d finishes, want 1/1", obs.Queries(), obs.Finishes())
			}
			if schedules := !slices.Contains(unscheduled, id); schedules != (obs.Segments() > 0) {
				t.Errorf("observer saw %d segments; want > 0 exactly when the algorithm schedules work (%v)", obs.Segments(), schedules)
			}
			if id == bench.AlgoSparta && obs.HeapUpdates() == 0 {
				t.Error("observer saw no heap updates")
			}
			if obs.IOFetches() == 0 || obs.IOWait() == 0 {
				t.Errorf("observer saw %d I/O fetches (%v wait), want > 0", obs.IOFetches(), obs.IOWait())
			}
			if gotSt, gotErr := obs.Last(); gotErr != nil || gotSt != st {
				t.Errorf("observer last = (%+v, %v), want (%+v, nil)", gotSt, gotErr, st)
			}
			pts := probe.Series().Points()
			finals := 0
			for _, p := range pts {
				if p.Value == 1 {
					finals++
				}
			}
			if len(pts) == 0 || pts[len(pts)-1].Value != 1 || finals != 1 || len(pts) > 2 {
				t.Errorf("probe series %v, want at most one early point then one final point at recall 1", pts)
			}
		})
	}
}

// TestInvalidOptionsRejected: every algorithm validates its options
// before it reads anything, and returns Validate's error, not a panic
// or an answer.
func TestInvalidOptionsRejected(t *testing.T) {
	x := algotest.SmallIndex(t, 31)
	q := algotest.RandomQuery(x, 3, 32)
	for _, c := range []struct {
		name string
		opts topk.Options
	}{
		{"negative K", topk.Options{K: -1}},
		{"negative Threads", topk.Options{K: 10, Threads: -2}},
		{"Exact with Delta", topk.Options{K: 10, Exact: true, Delta: time.Millisecond}},
	} {
		want := c.opts.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepted %+v", c.name, c.opts)
		}
		for _, id := range suiteAlgos {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s, %s: panicked: %v", c.name, id, p)
					}
				}()
				res, _, err := makeAlgorithm(t, id, x, x).Search(q, c.opts)
				if err == nil || err.Error() != want.Error() || res != nil {
					t.Errorf("%s, %s: %d results, err %v; want none and %v", c.name, id, len(res), err, want)
				}
			}()
		}
	}
}

// TestContextSearchMatchesSearch verifies that an unconstrained context
// changes nothing: SearchContext(Background) and Search return the
// same result set.
func TestContextSearchMatchesSearch(t *testing.T) {
	mem := algotest.SmallIndex(t, 21)
	q := algotest.RandomQuery(mem, 3, 22)
	for _, id := range suiteAlgos {
		alg := makeAlgorithm(t, id, mem, mem)
		opts := topk.Options{K: 10, Threads: 2, Exact: true}
		res1, _, err1 := alg.Search(q, opts)
		res2, _, err2 := alg.SearchContext(context.Background(), q, opts)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: errs %v / %v", id, err1, err2)
		}
		if model.Recall(res1, res2) != 1 {
			t.Errorf("%s: SearchContext(Background) diverges from Search", id)
		}
	}
}
