// External test package: the equivalence property imports bench (which
// itself imports batchexec via the throughput harness), so the tests
// cannot live inside the package.
package batchexec_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/batchexec"
	"sparta/internal/bench"
	"sparta/internal/codec"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/topk"
)

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

	for _, id := range bench.AllAlgos {
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

// await spins until cond holds: the tests wait for the executor to have
// admitted what they submitted, not for time to pass. (Their windows
// are an hour, which no test can wait out: whatever launches under one
// was launched by one of the other rules.)
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// collecting is a context that reports when its Done channel is first
// asked for. A query submitted behind a held one can only lead a batch,
// and a leader asks for its context's Done channel once its batch is
// open, so receiving from asked means "the batch is collecting".
type collecting struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func newCollecting(ctx context.Context) *collecting {
	return &collecting{Context: ctx, asked: make(chan struct{})}
}

func (c *collecting) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

// goroutineID names the calling goroutine (the number in its stack
// header), so a test can tell whether two pieces of code shared one.
func goroutineID() string {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(fields[1])
}

// ranOn records the goroutine of the algorithm's most recent call.
type ranOn struct {
	topk.Algorithm
	id atomic.Value
}

func (a *ranOn) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	a.id.Store(goroutineID())
	return a.Algorithm.SearchContext(ctx, q, opts)
}

// TestCoalescingCounters pins the batching bookkeeping: four queries
// submitted behind an executing one form one batch of four (three
// coalesce hits), the overlap terms are warmed, and MaxBatch closes the
// batch without the window.
func TestCoalescingCounters(t *testing.T) {
	x := algotest.SmallIndex(t, 7)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(4 << 20))

	const n = 4
	ex := batchexec.New(algotest.Gated(bench.MakeAlgorithm(bench.AlgoSparta, disk)), batchexec.Config{
		Window:     time.Hour,
		MaxBatch:   n, // the full batch closes it
		WarmBlocks: 2,
		Warmer:     disk,
	})
	q := algotest.RandomQuery(x, 4, 42) // identical queries: every term shared
	opts := topk.Options{K: 5, Exact: true, Threads: 1}

	release := algotest.Hold(ex)
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
	wg.Wait() // full-batch close: returning at all means nobody waited out the window
	release()
	ex.Drain()

	// The held query is the other batch: a batch of one that ran at once.
	c := ex.Counters()
	if c.Batches != 2 || c.BatchedQueries != n+1 || c.Coalesced != n-1 || c.Immediate != 1 {
		t.Errorf("counters = %+v, want 2 batches, %d queries, %d coalesced, 1 immediate", c, n+1, n-1)
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

// readsNothing answers every query empty without opening a cursor, so
// whatever a cache holds after a batch of them, the warm-up pass put
// there.
type readsNothing struct{}

func (readsNothing) Name() string { return "readsNothing" }
func (readsNothing) Search(model.Query, topk.Options) (model.TopK, topk.Stats, error) {
	return nil, topk.Stats{}, nil
}
func (readsNothing) SearchContext(context.Context, model.Query, topk.Options) (model.TopK, topk.Stats, error) {
	return nil, topk.Stats{}, nil
}

// TestWarmUpOnEitherCodec: a two-member batch that shares one term
// warms that term's leading blocks whichever codec the warm view was
// built with — the same block keys, the same number of fills — and
// leaves every warm reader settled. (A warmer only the uncompressed
// index implements leaves the shipped serving config, whose warm view
// is group-coded, silently unwarmed.)
func TestWarmUpOnEitherCodec(t *testing.T) {
	x := algotest.MediumIndex(t, 77)
	const shards, warmBlocks = 3, 2
	shared := model.TermID(0) // the longest list: several blocks in every region
	qa, qb := model.Query{shared, 5}, model.Query{9, shared}

	warmed := make(map[codec.ID]map[plcache.Key]bool)
	for _, id := range []codec.ID{codec.Group, codec.Raw} {
		view, err := diskindex.FromIndexWith(x, shards, iomodel.DefaultConfig(), id) // sleeps on: warm readers owe
		if err != nil {
			t.Fatal(err)
		}
		cache := plcache.NewWithBudget(8 << 20)
		view.SetPostingCache(cache)
		ex := batchexec.New(algotest.Gated(readsNothing{}), batchexec.Config{
			Window: time.Hour, MaxBatch: 2, WarmBlocks: warmBlocks, Warmer: view,
		})
		release := algotest.Hold(ex)
		var wg sync.WaitGroup
		for _, q := range []model.Query{qa, qb} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := ex.SearchContext(context.Background(), q, topk.Options{K: 5}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		release()
		ex.Drain()

		keys := make(map[plcache.Key]bool)
		kinds := []plcache.Kind{plcache.KindDoc, plcache.KindImpact}
		for s := 0; s < shards; s++ {
			kinds = append(kinds, plcache.KindShard(s))
		}
		for _, term := range []model.TermID{shared, 5, 9} {
			for _, kind := range kinds {
				for b := int32(0); b <= warmBlocks; b++ {
					k := plcache.Key{Term: term, Kind: kind, Block: b}
					if _, ok := cache.Get(k); ok {
						keys[k] = true
					}
				}
			}
		}
		warmed[id] = keys
		c := ex.Counters()
		if c.SharedTerms != 1 || c.WarmedBlocks == 0 || c.WarmedBlocks != int64(len(keys)) {
			t.Errorf("%v: %d shared terms, %d warmed blocks, %d blocks cached; want 1 term and every fill cached",
				id, c.SharedTerms, c.WarmedBlocks, len(keys))
		}
		if want := 2*warmBlocks + shards; len(keys) != want {
			t.Errorf("%v: warmed %d blocks of term %d, want %d leading doc and impact blocks plus one per shard",
				id, len(keys), shared, want)
		}
		if view.Store().Snapshot().BlocksRead == 0 {
			t.Errorf("%v: the warm pass charged nothing", id)
		}
		algotest.AssertSettled(t, fmt.Sprintf("%v after the warm pass", id), view.Store())
	}
	if !reflect.DeepEqual(warmed[codec.Raw], warmed[codec.Group]) {
		t.Errorf("raw warmed %v, group warmed %v", warmed[codec.Raw], warmed[codec.Group])
	}
}

// TestLoneQueryRunsAtOnce pins the idle rule: a query that finds the
// executor idle does not collect — it returns although the window is an
// hour — and its algorithm call runs on the goroutine that submitted it.
func TestLoneQueryRunsAtOnce(t *testing.T) {
	x := algotest.SmallIndex(t, 9)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	alg := &ranOn{Algorithm: bench.MakeAlgorithm(bench.AlgoSparta, disk)}
	ex := batchexec.New(alg, batchexec.Config{Window: time.Hour, MaxBatch: 8})
	q := algotest.RandomQuery(x, 3, 5)
	opts := topk.Options{K: 5, Exact: true, Threads: 1}
	want, _, err := alg.Algorithm.SearchContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		res, _, err := ex.SearchContext(context.Background(), q, opts)
		if err != nil || !reflect.DeepEqual(want, res) {
			t.Fatalf("lone query %d: err %v\nwant: %v\ngot: %v", i, err, want, res)
		}
		if on := alg.id.Load(); on != goroutineID() {
			t.Errorf("lone query %d ran on goroutine %v, submitted from %v", i, on, goroutineID())
		}
		if c := ex.Counters(); c.Batches != i || c.BatchedQueries != i || c.Immediate != i || c.Coalesced != 0 {
			t.Errorf("after %d lone queries: %+v, want each a batch of one that ran at once", i, c)
		}
	}
	ex.Drain()
	algotest.AssertSettled(t, "after lone queries", disk.Store())
}

// TestIdleClosesOpenBatch pins the rule that replaces waiting the
// window out: a batch collecting behind an executing query launches the
// moment that query leaves.
func TestIdleClosesOpenBatch(t *testing.T) {
	x := algotest.SmallIndex(t, 7)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	ex := batchexec.New(algotest.Gated(bench.MakeAlgorithm(bench.AlgoSparta, disk)), batchexec.Config{
		Window:   time.Hour,
		MaxBatch: 8, // never full
	})
	q := algotest.RandomQuery(x, 4, 42)
	opts := topk.Options{K: 5, Exact: true, Threads: 1}
	want, _, err := bench.MakeAlgorithm(bench.AlgoSparta, disk).SearchContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}

	release := algotest.Hold(ex)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, _, err := ex.SearchContext(context.Background(), q, opts); err != nil || !reflect.DeepEqual(want, res) {
				t.Errorf("member: err %v\nwant: %v\ngot: %v", err, want, res)
			}
		}()
	}
	// Whichever arrives first leads; all n are in once the others joined.
	await(t, "the batch to gather", func() bool { return ex.Counters().Coalesced == n-1 })
	if c := ex.Counters(); c.Batches != 1 { // the held query's
		t.Fatalf("the batch launched behind an executing query: %+v", c)
	}
	release() // the executor goes idle
	wg.Wait()
	ex.Drain()
	if c := ex.Counters(); c.Batches != 2 || c.BatchedQueries != n+1 || c.MaxBatchObserved != n || c.Immediate != 1 {
		t.Errorf("counters = %+v, want the held query and one batch of %d", c, n)
	}
	algotest.AssertSettled(t, "after idle close", disk.Store())
}

// TestLoneLeaderRunsOnItsOwnGoroutine: a batch that closes with one
// member is executed by its leader, not handed to a new goroutine.
func TestLoneLeaderRunsOnItsOwnGoroutine(t *testing.T) {
	x := algotest.SmallIndex(t, 9)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	alg := &ranOn{Algorithm: algotest.Gated(bench.MakeAlgorithm(bench.AlgoSparta, disk))}
	ex := batchexec.New(alg, batchexec.Config{Window: time.Hour, MaxBatch: 8})
	q := algotest.RandomQuery(x, 3, 5)

	release := algotest.Hold(ex)
	ctx := newCollecting(context.Background())
	leader := make(chan string, 1)
	go func() {
		if res, _, err := ex.SearchContext(ctx, q, topk.Options{K: 5, Exact: true, Threads: 1}); err != nil || len(res) == 0 {
			t.Errorf("leader: %d results, err %v", len(res), err)
		}
		leader <- goroutineID()
	}()
	<-ctx.asked
	release()
	if id := <-leader; alg.id.Load() != id {
		t.Errorf("one-member batch ran on goroutine %v, its leader was %v", alg.id.Load(), id)
	}
	ex.Drain()
	if c := ex.Counters(); c.Batches != 2 || c.Immediate != 1 || c.Coalesced != 0 {
		t.Errorf("counters = %+v, want the held query at once and the leader's batch of one", c)
	}
}

// TestCoArrivalsIntoIdleExecutor throws n queries at an idle executor
// at once, at several core counts: however they interleave — one runs
// at once, the rest batch behind it and behind each other — all of them
// complete with the exact top-k, every query is a batch's leader or a coalesce hit,
// and the store settles.
func TestCoArrivalsIntoIdleExecutor(t *testing.T) {
	x := algotest.MediumIndex(t, 2024)
	disk, err := diskindex.FromIndex(x, 4, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(8 << 20))
	const n = 16
	opts := topk.Options{K: 10, Exact: true, Threads: 2}
	alg := bench.MakeAlgorithm(bench.AlgoSparta, disk)
	qs, want := make([]model.Query, n), make([]model.TopK, n)
	for i := range qs {
		qs[i] = algotest.RandomQuery(x, 3+i%4, uint64(100+i))
		if want[i], _, err = alg.SearchContext(context.Background(), qs[i], opts); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		ex := batchexec.New(alg, batchexec.Config{Window: time.Hour, MaxBatch: 4, WarmBlocks: 2, Warmer: disk})
		for round := int64(1); round <= 5; round++ {
			got, errs := make([]model.TopK, n), make([]error, n)
			var wg sync.WaitGroup
			for i := range qs {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], _, errs[i] = ex.SearchContext(context.Background(), qs[i], opts)
				}()
			}
			wg.Wait()
			ex.Drain()
			for i := range qs {
				label := fmt.Sprintf("procs=%d round %d query %d", procs, round, i)
				if errs[i] != nil {
					t.Fatalf("%s: %v", label, errs[i])
				}
				// Two threads: which of two documents tied at the k-th score
				// stays is the scheduler's choice, batched or not.
				algotest.AssertExact(t, label, want[i], got[i])
			}
			c := ex.Counters()
			if c.BatchedQueries != round*n || c.Batches+c.Coalesced != c.BatchedQueries || c.Immediate < round {
				t.Errorf("procs=%d round %d: %+v, want %d queries, each a leader or a coalesce hit", procs, round, c, round*n)
			}
			algotest.AssertSettled(t, fmt.Sprintf("procs=%d round %d", procs, round), disk.Store())
		}
	}
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
	for _, id := range []codec.ID{codec.Raw, codec.Group} {
		t.Run(id.String(), func(t *testing.T) { cancelMidBatchSettles(t, id) })
	}
}

func cancelMidBatchSettles(t *testing.T, id codec.ID) {
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
	disk, err := diskindex.FromIndexWith(x, 4, cfg, id)
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(8 << 20))
	store := disk.Store()

	const n = 4
	ex := batchexec.New(algotest.Gated(bench.MakeAlgorithm(bench.AlgoSparta, disk)), batchexec.Config{
		Window:     time.Hour,
		MaxBatch:   n,
		WarmBlocks: 2,
		Warmer:     disk,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel the victim after a few physical fetches, mid-traversal.
	obs := &cancelAfterIO{cancel: cancel, after: 3}

	release := algotest.Hold(ex) // the n members form one batch behind it
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
	release()
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

// TestCancelledLoneQuerySettles cancels a query on the path that runs
// it at once, mid-traversal: it returns its anytime partial, nothing it
// read is left unpaid, and Drain — which covers that path too — returns.
func TestCancelledLoneQuerySettles(t *testing.T) {
	x := algotest.MediumIndex(t, 555)
	// Charges out of reach of the sleep batch stay visible until settled.
	disk, err := diskindex.FromIndex(x, 4, iomodel.Config{
		BlockSize:   4096,
		CacheBlocks: 16,
		SeqLatency:  200 * time.Nanosecond,
		RandLatency: 500 * time.Nanosecond,
		SleepBatch:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := batchexec.New(bench.MakeAlgorithm(bench.AlgoSparta, disk), batchexec.Config{Window: time.Hour, MaxBatch: 8})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := topk.Options{K: 10, Exact: true, Threads: 2, Observer: &cancelAfterIO{cancel: cancel, after: 3}}
	res, st, err := ex.SearchContext(ctx, algotest.RandomQuery(x, 5, 900), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.StopReason != topk.StopCancelled {
		t.Errorf("stop reason %q, want %q", st.StopReason, topk.StopCancelled)
	}
	algotest.AssertPartialTopK(t, "cancelled lone query", res, opts.K)
	ex.Drain()
	algotest.AssertSettled(t, "after cancelled lone query", disk.Store())
	if c := ex.Counters(); c.Immediate != 1 || c.Batches != 1 {
		t.Errorf("counters = %+v, want one query that ran at once", c)
	}
	if io := disk.Store().Snapshot(); io.SimulatedIO == 0 {
		t.Fatal("test charged no simulated I/O; settlement was not exercised")
	}
}

// disjointQueries returns two queries over x with no term in common.
func disjointQueries(t *testing.T, x *index.Index, m int) (a, b model.Query) {
	t.Helper()
	a = algotest.RandomQuery(x, m, 21)
	in := make(map[model.TermID]bool, m)
	for _, term := range a {
		in[term] = true
	}
search:
	for seed := uint64(22); seed < 200; seed++ {
		b = algotest.RandomQuery(x, m, seed)
		for _, term := range b {
			if in[term] {
				continue search
			}
		}
		return a, b
	}
	t.Fatal("no disjoint query pair found")
	return nil, nil
}

// TestWarmSkipsDeadlineStarvedTerms pins the warm-up budget check: once
// a warm pass has been timed, shared terms whose every subscriber
// carries a deadline budget below the observed per-block fill latency
// are not warmed (the subscribers would stop before their cursors reach
// the warmed blocks), while unbounded batches keep warming.
func TestWarmSkipsDeadlineStarvedTerms(t *testing.T) {
	x := algotest.SmallIndex(t, 13)
	// Real sleeps, so a warm fill takes measurable time.
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

	const n = 3
	ex := batchexec.New(algotest.Gated(bench.MakeAlgorithm(bench.AlgoSparta, disk)), batchexec.Config{
		Window:     time.Hour,
		MaxBatch:   n,
		WarmBlocks: 2,
		Warmer:     disk,
	})
	qLead, qStarved := disjointQueries(t, x, 4)
	opts := topk.Options{K: 5, Exact: true, Threads: 1}
	search := func(wg *sync.WaitGroup, ctx context.Context, q model.Query) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := ex.SearchContext(ctx, q, opts); err != nil {
				t.Error(err)
			}
		}()
	}

	// Training batch: no deadlines, so the warm pass runs and its
	// per-block latency is observed.
	release := algotest.Hold(ex)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		search(&wg, context.Background(), qStarved)
	}
	wg.Wait()
	release()
	ex.Drain()
	trained := ex.Counters()
	if trained.WarmedBlocks == 0 {
		t.Fatal("training batch warmed nothing; the latency estimate was never observed")
	}
	if trained.WarmSkippedTerms != 0 {
		t.Fatalf("training batch skipped %d terms; nothing should skip before a deadline-bounded batch", trained.WarmSkippedTerms)
	}

	// Starved batch: an unbounded leader on terms of its own, then two
	// members past their deadlines that share qStarved's terms — no
	// subscriber of those has any budget left, so none is warmed. (The
	// leader must be the unbounded one: a leader past its deadline
	// launches alone, and a batch of one never considers warming.) The
	// starved members stop at once with anytime partials (nil error),
	// which is fine — the property under test is the warm pass.
	release = algotest.Hold(ex)
	leadCtx := newCollecting(context.Background())
	search(&wg, leadCtx, qLead)
	<-leadCtx.asked
	past, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	search(&wg, past, qStarved)
	search(&wg, past, qStarved) // fills the batch
	wg.Wait()
	release()
	ex.Drain()

	c := ex.Counters()
	distinct := make(map[model.TermID]bool)
	for _, term := range qStarved {
		distinct[term] = true
	}
	if c.WarmSkippedTerms != int64(len(distinct)) {
		t.Errorf("skipped %d shared terms, want all %d the starved members share", c.WarmSkippedTerms, len(distinct))
	}
	if c.WarmedBlocks != trained.WarmedBlocks {
		t.Errorf("deadline-starved batch warmed %d blocks", c.WarmedBlocks-trained.WarmedBlocks)
	}
	if c.MaxBatchObserved != n {
		t.Errorf("max batch observed = %d, want %d", c.MaxBatchObserved, n)
	}
	algotest.AssertSettled(t, "after starved batch", disk.Store())
}

// TestLeaderCancelledDuringWindow pins the collection-window edge: a
// leader whose context dies while collecting launches the batch there
// and then, returns its (pre-cancelled, empty-or-partial) result, and
// the member that had joined completes normally.
func TestLeaderCancelledDuringWindow(t *testing.T) {
	x := algotest.SmallIndex(t, 31)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	ex := batchexec.New(algotest.Gated(bench.MakeAlgorithm(bench.AlgoSparta, disk)), batchexec.Config{
		Window:   time.Hour, // only cancellation can end the collection
		MaxBatch: 8,
	})
	q := algotest.RandomQuery(x, 3, 17)
	opts := topk.Options{K: 5, Exact: true, Threads: 1}

	release := algotest.Hold(ex)
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := newCollecting(parent)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, st, err := ex.SearchContext(ctx, q, opts); err != nil || st.StopReason != topk.StopCancelled {
			t.Errorf("leader: stop reason %q, err %v; want %q", st.StopReason, err, topk.StopCancelled)
		}
	}()
	<-ctx.asked // the leader is collecting
	go func() {
		defer wg.Done()
		if res, st, err := ex.SearchContext(context.Background(), q, opts); err != nil || len(res) == 0 || st.StopReason == topk.StopCancelled {
			t.Errorf("joined member: %d results, stop %q, err %v", len(res), st.StopReason, err)
		}
	}()
	await(t, "the member to join", func() bool { return ex.Counters().Coalesced == 1 })
	cancel()
	wg.Wait() // with the held query still executing: the cancellation launched the batch
	release()
	ex.Drain()
	if c := ex.Counters(); c.Batches != 2 || c.MaxBatchObserved != 2 {
		t.Errorf("counters = %+v, want the held query and one batch of two", c)
	}
	algotest.AssertSettled(t, "after cancelled leader", disk.Store())
}
