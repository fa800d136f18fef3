// External test package: the equivalence property imports bench (which
// itself imports batchexec via the throughput harness), so the tests
// cannot live inside the package.
package batchexec_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/batchexec"
	"sparta/internal/bench"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/topk"
)

// exactAlgos is every exact algorithm of the repository except sNRA
// (whose shard scheduling makes its traversal order — though not its
// result set — depend on timing).
var exactAlgos = []bench.AlgoID{
	bench.AlgoSparta, bench.AlgoPRA, bench.AlgoPNRA, bench.AlgoPBMW,
	bench.AlgoPJASS, bench.AlgoRA, bench.AlgoNRA, bench.AlgoSelNRA,
	bench.AlgoWAND, bench.AlgoPWAND, bench.AlgoMaxScore, bench.AlgoBMW,
	bench.AlgoJASS,
}

// TestBatchedMatchesSequential is the tentpole's equivalence property:
// for every exact algorithm and MaxBatch ∈ {1, 2, 8}, a query batch
// executed through the coalescing layer returns byte-identical results
// to the same queries run sequentially with no batching. Run under
// -race in CI.
func TestBatchedMatchesSequential(t *testing.T) {
	x := algotest.MediumIndex(t, 2024)
	disk, err := diskindex.FromIndex(x, 4, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(8 << 20))

	const nq = 8
	qs := make([]model.Query, nq)
	for i := range qs {
		// Zipfian draws overlap heavily on popular terms, so batches
		// share terms and the warm-up pass has work to do.
		qs[i] = algotest.RandomQuery(x, 3+i%4, uint64(100+i))
	}
	opts := topk.Options{K: 10, Exact: true, Threads: 1}

	for _, id := range exactAlgos {
		id := id
		t.Run(string(id), func(t *testing.T) {
			// Sequential ground truth: the bare algorithm, one query at a
			// time.
			seq := make([]model.TopK, nq)
			alg := bench.MakeAlgorithm(id, disk)
			for i, q := range qs {
				res, _, err := alg.SearchContext(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("sequential %v: %v", q, err)
				}
				seq[i] = res
			}

			for _, maxBatch := range []int{1, 2, 8} {
				ex := batchexec.New(bench.MakeAlgorithm(id, disk), batchexec.Config{
					Window:     20 * time.Millisecond,
					MaxBatch:   maxBatch,
					WarmBlocks: 2,
					Warmer:     disk,
				})
				got := make([]model.TopK, nq)
				var wg sync.WaitGroup
				for i, q := range qs {
					i, q := i, q
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, st, err := ex.SearchContext(context.Background(), q, opts)
						if err != nil {
							t.Errorf("batched(%d) %v: %v", maxBatch, q, err)
							return
						}
						if st.StopReason == topk.StopCancelled || st.StopReason == topk.StopDeadline {
							t.Errorf("batched(%d) %v: unexpected stop %q", maxBatch, q, st.StopReason)
						}
						got[i] = res
					}()
				}
				wg.Wait()
				ex.Drain()
				for i := range qs {
					if !reflect.DeepEqual(seq[i], got[i]) {
						t.Errorf("maxBatch=%d query %d: batched result differs\nseq: %v\ngot: %v",
							maxBatch, i, seq[i], got[i])
					}
				}
				algotest.AssertSettled(t, fmt.Sprintf("maxBatch=%d after drain", maxBatch), disk.Store())
			}
		})
	}
}

// TestCoalescingCounters pins the batching bookkeeping: four queries
// submitted into one generous window form one batch of four (three
// coalesce hits), the overlap terms are warmed, and MaxBatch closes the
// batch early.
func TestCoalescingCounters(t *testing.T) {
	x := algotest.SmallIndex(t, 7)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(4 << 20))

	const n = 4
	ex := batchexec.New(bench.MakeAlgorithm(bench.AlgoSparta, disk), batchexec.Config{
		Window:     250 * time.Millisecond, // generous: all n arrive inside it
		MaxBatch:   n,                      // ...and the full batch closes it early
		WarmBlocks: 2,
		Warmer:     disk,
	})
	q := algotest.RandomQuery(x, 4, 42) // identical queries: every term shared
	opts := topk.Options{K: 5, Exact: true, Threads: 1}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := ex.SearchContext(context.Background(), q, opts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	ex.Drain()

	// Full-batch early close: nobody waited out the 250ms window.
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("full batch took %v; early close did not fire", d)
	}
	c := ex.Counters()
	if c.Batches != 1 || c.BatchedQueries != n || c.Coalesced != n-1 {
		t.Errorf("counters = %+v, want 1 batch, %d queries, %d coalesced", c, n, n-1)
	}
	if c.MaxBatchObserved != n {
		t.Errorf("max batch observed = %d, want %d", c.MaxBatchObserved, n)
	}
	if c.SharedTerms != int64(len(q)) {
		t.Errorf("shared terms = %d, want %d (identical queries)", c.SharedTerms, len(q))
	}
	if c.WarmedBlocks == 0 {
		t.Error("warm-up pass performed no fills")
	}
	algotest.AssertSettled(t, "after drain", disk.Store())
}

// TestZeroWindowPassesThrough pins the compatibility contract: the zero
// Config executes queries synchronously on the caller's goroutine with
// no batching state.
func TestZeroWindowPassesThrough(t *testing.T) {
	x := algotest.SmallIndex(t, 9)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	ex := batchexec.New(bench.MakeAlgorithm(bench.AlgoSparta, disk), batchexec.Config{})
	q := algotest.RandomQuery(x, 3, 5)
	res, _, err := ex.SearchContext(context.Background(), q, topk.Options{K: 5, Exact: true, Threads: 1})
	if err != nil || len(res) == 0 {
		t.Fatalf("pass-through search: %d results, err %v", len(res), err)
	}
	if c := ex.Counters(); c.Batches != 0 || c.BatchedQueries != 0 {
		t.Errorf("pass-through moved batch counters: %+v", c)
	}
}

// TestCancelMidBatchSettles cancels one member of an in-flight batch
// while the others run to completion: the cancelled member returns its
// anytime partial (nil error), the rest return exact results, and after
// the batch drains every simulated-I/O charge is settled — the
// acceptance invariant Store.Unsettled() == 0 on the cancellation path.
func TestCancelMidBatchSettles(t *testing.T) {
	x := algotest.MediumIndex(t, 555)
	// Real (tiny) latencies with settlement out of reach of the sleep
	// batch: unpaid charges stay visible until someone settles them.
	cfg := iomodel.Config{
		BlockSize:   4096,
		CacheBlocks: 16,
		SeqLatency:  200 * time.Nanosecond,
		RandLatency: 500 * time.Nanosecond,
		SleepBatch:  time.Hour,
	}
	disk, err := diskindex.FromIndex(x, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(8 << 20))
	store := disk.Store()

	const n = 4
	ex := batchexec.New(bench.MakeAlgorithm(bench.AlgoSparta, disk), batchexec.Config{
		Window:     100 * time.Millisecond,
		MaxBatch:   n,
		WarmBlocks: 2,
		Warmer:     disk,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel the victim after a few physical fetches, mid-traversal.
	obs := &cancelAfterIO{cancel: cancel, after: 3}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := algotest.RandomQuery(x, 5, uint64(900+i))
			opts := topk.Options{K: 10, Exact: true, Threads: 2}
			qctx := context.Background()
			if i == 0 {
				qctx, opts.Observer = ctx, obs
			}
			res, st, err := ex.SearchContext(qctx, q, opts)
			if err != nil {
				t.Errorf("member %d: %v", i, err)
				return
			}
			if i == 0 {
				if st.StopReason != topk.StopCancelled {
					t.Errorf("victim stop reason %q, want %q", st.StopReason, topk.StopCancelled)
				}
				algotest.AssertPartialTopK(t, "victim", res, opts.K)
			}
		}()
	}
	wg.Wait()
	ex.Drain()

	algotest.AssertSettled(t, "after cancelled batch", store)
	if io := store.Snapshot(); io.SimulatedIO == 0 {
		t.Fatal("test charged no simulated I/O; settlement was not exercised")
	}
}

// cancelAfterIO cancels a context after a fixed number of physical
// fetches, so cancellation strikes mid-traversal deterministically.
type cancelAfterIO struct {
	topk.NopObserver
	cancel context.CancelFunc
	after  int64
	seen   int64
	mu     sync.Mutex
}

func (c *cancelAfterIO) IOFetch(time.Duration) {
	c.mu.Lock()
	c.seen++
	hit := c.seen == c.after
	c.mu.Unlock()
	if hit {
		c.cancel()
	}
}

// TestWarmSkipsDeadlineStarvedTerms pins the warm-up budget check: once
// a warm pass has been timed, a batch whose every subscriber carries a
// deadline budget below the observed per-block fill latency skips
// warming its shared terms (the subscribers would stop before their
// cursors reach the warmed blocks), while unbounded batches keep
// warming.
func TestWarmSkipsDeadlineStarvedTerms(t *testing.T) {
	x := algotest.SmallIndex(t, 13)
	// Real sleeps, slow enough that a per-block warm fill measurably
	// costs hundreds of microseconds.
	cfg := iomodel.Config{
		BlockSize:   4096,
		CacheBlocks: 4,
		SeqLatency:  300 * time.Microsecond,
		RandLatency: 300 * time.Microsecond,
		SleepBatch:  50 * time.Microsecond,
	}
	disk, err := diskindex.FromIndex(x, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(4 << 20))

	const n = 2
	ex := batchexec.New(bench.MakeAlgorithm(bench.AlgoSparta, disk), batchexec.Config{
		Window:     100 * time.Millisecond,
		MaxBatch:   n,
		WarmBlocks: 2,
		Warmer:     disk,
	})
	q := algotest.RandomQuery(x, 4, 21)
	opts := topk.Options{K: 5, Exact: true, Threads: 1}

	// Training batch: no deadlines, so the warm pass runs and its
	// per-block latency is observed.
	runBatch := func(ctx context.Context) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := ex.SearchContext(ctx, q, opts); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		ex.Drain()
	}
	runBatch(context.Background())
	trained := ex.Counters()
	if trained.WarmedBlocks == 0 {
		t.Fatal("training batch warmed nothing; the latency estimate was never observed")
	}
	if trained.WarmSkippedTerms != 0 {
		t.Fatalf("training batch skipped %d terms; nothing should skip before a deadline-bounded batch", trained.WarmSkippedTerms)
	}

	// Starved batches: every member's remaining budget (~100µs, enough
	// to survive the collection window but far below the observed
	// ~300µs per-block fill latency) makes its shared terms unwarmable.
	// The members themselves stop at their deadlines with anytime
	// partials (nil error), which is fine — the property under test is
	// the warm pass, not the members. A member whose deadline fires
	// before its partner joins launches alone (batches of one never
	// consider warming), so retry until a two-member batch forms.
	var c batchexec.Counters
	for attempt := 0; attempt < 200; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
		runBatch(ctx)
		cancel()
		if c = ex.Counters(); c.WarmSkippedTerms > 0 {
			break
		}
	}
	if c.WarmSkippedTerms == 0 {
		t.Error("deadline-starved batches skipped no shared terms")
	}
	if c.WarmedBlocks != trained.WarmedBlocks {
		t.Errorf("deadline-starved batch warmed %d blocks", c.WarmedBlocks-trained.WarmedBlocks)
	}
	algotest.AssertSettled(t, "after starved batch", disk.Store())
}

// TestLeaderCancelledDuringWindow pins the collection-window edge: a
// leader whose context dies while collecting still launches the batch,
// returns its (pre-cancelled, empty-or-partial) result, and any joined
// member completes normally.
func TestLeaderCancelledDuringWindow(t *testing.T) {
	x := algotest.SmallIndex(t, 31)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	ex := batchexec.New(bench.MakeAlgorithm(bench.AlgoSparta, disk), batchexec.Config{
		Window:   10 * time.Second, // only cancellation can end the window
		MaxBatch: 8,
	})
	ctx, cancel := context.WithCancel(context.Background())
	q := algotest.RandomQuery(x, 3, 17)
	opts := topk.Options{K: 5, Exact: true, Threads: 1}

	done := make(chan error, 1)
	go func() {
		_, st, err := ex.SearchContext(ctx, q, opts)
		if err == nil && st.StopReason != topk.StopCancelled {
			err = fmt.Errorf("leader stop reason %q, want %q", st.StopReason, topk.StopCancelled)
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the leader open its window
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled leader never returned")
	}
	ex.Drain()
	algotest.AssertSettled(t, "after cancelled leader", disk.Store())
	// Ensure a live member can still join and complete on the next batch.
	if res, _, err := ex.SearchContext(context.Background(), q, opts); err != nil || len(res) == 0 {
		t.Fatalf("post-cancel search: %d results, err %v", len(res), err)
	}
	ex.Drain()
}
