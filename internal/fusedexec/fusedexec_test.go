// External test package: the equivalence matrix imports bench (which
// imports batchexec, which fusedexec plugs into), so the tests cannot
// live inside the package.
package fusedexec_test

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
	"sparta/internal/cindex"
	"sparta/internal/cmap"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/fusedexec"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// fusedExecutor wires a batch executor whose closed batches run through
// a fused engine over view, returning both. The algorithm is gated: the
// tests hold one query inside the executor (algotest.Hold) while they
// submit, so what they submit batches behind it instead of the first
// arrival running at once.
func fusedExecutor(alg topk.Algorithm, view postings.View, window time.Duration, maxBatch int) (*batchexec.Executor, *fusedexec.Engine) {
	alg = algotest.Gated(alg)
	eng := fusedexec.New(alg, view)
	ex := batchexec.New(alg, batchexec.Config{
		Window:   window,
		MaxBatch: maxBatch,
		Fused:    eng,
	})
	return ex, eng
}

// TestFusedMatchesSequential is the tentpole's equivalence property:
// for every exact algorithm and MaxBatch ∈ {2, 8, 16}, a query batch
// executed through the fused engine returns byte-identical results per
// member to the same queries run sequentially with no batching. Run
// under -race in CI.
func TestFusedMatchesSequential(t *testing.T) {
	x := algotest.MediumIndex(t, 2024)
	disk, err := diskindex.FromIndex(x, 4, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(8 << 20))
	if !fusedexec.Supported(disk) {
		t.Fatal("disk index does not support block walking")
	}

	const nq = 8
	qs := make([]model.Query, nq)
	for i := range qs {
		// Zipfian draws overlap heavily on popular terms, so batches
		// share terms and the fused traversals have subscribers.
		qs[i] = algotest.RandomQuery(x, 3+i%4, uint64(100+i))
	}
	opts := topk.Options{K: 10, Exact: true, Threads: 1}

	for _, id := range bench.AllAlgos {
		id := id
		t.Run(string(id), func(t *testing.T) {
			seq := make([]model.TopK, nq)
			alg := bench.MakeAlgorithm(id, disk)
			for i, q := range qs {
				res, _, err := alg.SearchContext(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("sequential %v: %v", q, err)
				}
				seq[i] = res
			}

			for _, maxBatch := range []int{2, 8, 16} {
				ex, eng := fusedExecutor(bench.MakeAlgorithm(id, disk), disk, 20*time.Millisecond, maxBatch)
				got := make([]model.TopK, nq)
				release := algotest.Hold(ex)
				var wg sync.WaitGroup
				for i, q := range qs {
					i, q := i, q
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, st, err := ex.SearchContext(context.Background(), q, opts)
						if err != nil {
							t.Errorf("fused(%d) %v: %v", maxBatch, q, err)
							return
						}
						if st.StopReason == topk.StopCancelled || st.StopReason == topk.StopDeadline {
							t.Errorf("fused(%d) %v: unexpected stop %q", maxBatch, q, st.StopReason)
						}
						got[i] = res
					}()
				}
				wg.Wait()
				release()
				ex.Drain()
				for i := range qs {
					if !reflect.DeepEqual(seq[i], got[i]) {
						t.Errorf("maxBatch=%d query %d: fused result differs\nseq: %v\ngot: %v",
							maxBatch, i, seq[i], got[i])
					}
				}
				if c := eng.Counters(); c.FusedMembers == 0 {
					t.Errorf("maxBatch=%d: no members took the fused path (%+v)", maxBatch, c)
				}
				algotest.AssertSettled(t, fmt.Sprintf("maxBatch=%d after drain", maxBatch), disk.Store())
			}
		})
	}
}

// TestFusedCompressedView runs the equivalence property over the
// compressed index's block walker (the other BlockWalker in the tree).
func TestFusedCompressedView(t *testing.T) {
	x := algotest.MediumIndex(t, 77)
	ci, err := cindex.FromIndex(x, 4, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	ci.SetPostingCache(plcache.NewWithBudget(8 << 20))
	if !fusedexec.Supported(ci) {
		t.Fatal("compressed index does not support block walking")
	}

	const nq = 6
	qs := make([]model.Query, nq)
	for i := range qs {
		qs[i] = algotest.RandomQuery(x, 3+i%3, uint64(300+i))
	}
	opts := topk.Options{K: 10, Exact: true, Threads: 1}
	alg := bench.MakeAlgorithm(bench.AlgoSparta, ci)
	seq := make([]model.TopK, nq)
	for i, q := range qs {
		res, _, err := alg.SearchContext(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = res
	}

	ex, _ := fusedExecutor(bench.MakeAlgorithm(bench.AlgoSparta, ci), ci, 20*time.Millisecond, nq)
	got := make([]model.TopK, nq)
	release := algotest.Hold(ex)
	var wg sync.WaitGroup
	for i, q := range qs {
		i, q := i, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := ex.SearchContext(context.Background(), q, opts)
			if err != nil {
				t.Errorf("%v: %v", q, err)
				return
			}
			got[i] = res
		}()
	}
	wg.Wait()
	release()
	ex.Drain()
	for i := range qs {
		if !reflect.DeepEqual(seq[i], got[i]) {
			t.Errorf("query %d: fused result over cindex differs\nseq: %v\ngot: %v", i, seq[i], got[i])
		}
	}
	algotest.AssertSettled(t, "after drain", ci.Store())
}

// TestFusedCancelMidBatchSettles cancels one member of a fused batch
// mid-traversal while the others run to completion: the victim returns
// its anytime partial (nil error, StopReason cancelled), the survivors
// return byte-identical exact results, and after the batch drains every
// simulated-I/O charge is settled — Store.Unsettled() == 0 on the
// cancellation path, with charges kept visible (SleepBatch out of
// reach) so an unsettled reader could not hide.
func TestFusedCancelMidBatchSettles(t *testing.T) {
	x := algotest.MediumIndex(t, 555)
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
	opts := topk.Options{K: 10, Exact: true, Threads: 1}
	qs := make([]model.Query, n)
	for i := range qs {
		qs[i] = algotest.RandomQuery(x, 5, uint64(900+i))
	}
	alg := bench.MakeAlgorithm(bench.AlgoSparta, disk)
	seq := make([]model.TopK, n)
	for i, q := range qs {
		if seq[i], _, err = alg.SearchContext(context.Background(), q, opts); err != nil {
			t.Fatal(err)
		}
	}

	// Several rounds with the victim rotating and cancellation striking
	// at varying points of the traversal.
	for round := 0; round < 6; round++ {
		victim := round % n
		delay := time.Duration(round) * 200 * time.Microsecond
		ex, _ := fusedExecutor(bench.MakeAlgorithm(bench.AlgoSparta, disk), disk, 50*time.Millisecond, n)

		ctx, cancel := context.WithCancel(context.Background())
		release := algotest.Hold(ex)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				qctx := context.Background()
				if i == victim {
					qctx = ctx
					time.AfterFunc(delay, cancel)
				}
				res, st, err := ex.SearchContext(qctx, qs[i], opts)
				if err != nil {
					t.Errorf("round %d member %d: %v", round, i, err)
					return
				}
				if i == victim && st.StopReason == topk.StopCancelled {
					algotest.AssertPartialTopK(t, "victim", res, opts.K)
					return
				}
				// Survivors — and a victim that finished before the cancel
				// landed — must be byte-identical to sequential execution.
				if !reflect.DeepEqual(seq[i], res) {
					t.Errorf("round %d member %d: fused result differs\nseq: %v\ngot: %v",
						round, i, seq[i], res)
				}
			}()
		}
		wg.Wait()
		release()
		ex.Drain()
		cancel()
		algotest.AssertSettled(t, fmt.Sprintf("round %d after drain", round), store)
	}
	if io := store.Snapshot(); io.SimulatedIO == 0 {
		t.Fatal("test charged no simulated I/O; settlement was not exercised")
	}
}

// TestFusedDetachEarly forces the threshold/upper-bound detach
// deterministically: two members share one skewed term — one huge-tf
// document up front, then a long uniform tail — with K=1, so after the
// first θ refresh the suffix bound of the remaining blocks falls
// strictly below θ and both members detach without walking the tail.
// The result must still be byte-identical to sequential execution (the
// exact-resolution step covers the forfeited bounds).
func TestFusedDetachEarly(t *testing.T) {
	b := index.NewBuilder()
	// Doc 0: tf=4 on term 0. With the normalized tf-idf model the
	// impact is (1+ln 4)/√4 ≈ 1.19× a tail doc's (1+ln 1)/√1 — above
	// the tail's uniform suffix bound, which is all the strict detach
	// inequality needs.
	b.AddBag([]corpus.TermCount{{Term: 0, Count: 4}})
	// A 20-block tail of tf=1 docs on the same term.
	for i := 0; i < 20*postings.BlockSize; i++ {
		b.AddBag([]corpus.TermCount{{Term: 0, Count: 1}})
	}
	x := b.Build()

	disk, err := diskindex.FromIndex(x, 1, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(4 << 20))
	nblocks := len(disk.DocBlockMeta(0))
	if nblocks < 10 {
		t.Fatalf("skewed term spans %d blocks; want ≥ 10 for the detach to save work", nblocks)
	}

	q := model.Query{0}
	opts := topk.Options{K: 1, Exact: true, Threads: 1}
	alg := bench.MakeAlgorithm(bench.AlgoSparta, disk)
	want, _, err := alg.SearchContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}

	const n = 2
	ex, eng := fusedExecutor(bench.MakeAlgorithm(bench.AlgoSparta, disk), disk, 50*time.Millisecond, n)
	release := algotest.Hold(ex)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, st, err := ex.SearchContext(context.Background(), q, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if st.StopReason != fusedexec.StopFused {
				t.Errorf("stop reason %q, want %q", st.StopReason, fusedexec.StopFused)
			}
			if !reflect.DeepEqual(want, res) {
				t.Errorf("detached fused result differs\nseq: %v\ngot: %v", want, res)
			}
		}()
	}
	wg.Wait()
	release()
	ex.Drain()

	c := eng.Counters()
	// With a single shared term the member-level UB stop (remUB falls
	// below θ after the first block) fires before — and subsumes — the
	// per-term detach; either way both members must leave the tail.
	if c.DetachEarly+c.UBStops < n {
		t.Errorf("detach_early+ub_stops = %d+%d, want ≥ %d (both members leave the tail)",
			c.DetachEarly, c.UBStops, n)
	}
	if c.BlocksWalked >= int64(nblocks) {
		t.Errorf("blocks walked = %d of %d; the detach saved nothing", c.BlocksWalked, nblocks)
	}
	algotest.AssertSettled(t, "after drain", disk.Store())
}

// TestFusedCountersAndBlocksSaved pins the fused bookkeeping on a batch
// of identical queries: one fused batch, every member fused, every
// distinct term a shared traversal, and each walked block scored for
// all members but decoded once.
func TestFusedCountersAndBlocksSaved(t *testing.T) {
	x := algotest.SmallIndex(t, 7)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(4 << 20))

	const n = 4
	q := algotest.RandomQuery(x, 4, 42)
	distinct := make(map[model.TermID]struct{})
	for _, term := range q {
		distinct[term] = struct{}{}
	}
	opts := topk.Options{K: 5, Exact: true, Threads: 1}
	ex, eng := fusedExecutor(bench.MakeAlgorithm(bench.AlgoSparta, disk), disk, 250*time.Millisecond, n)

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
	wg.Wait()
	release()
	ex.Drain()

	if bc := ex.Counters(); bc.FusedBatches != 1 {
		t.Errorf("fused batches = %d, want 1", bc.FusedBatches)
	}
	c := eng.Counters()
	if c.FusedMembers != n || c.FallbackMembers != 0 {
		t.Errorf("members fused/fallback = %d/%d, want %d/0", c.FusedMembers, c.FallbackMembers, n)
	}
	if c.FusedTerms != int64(len(distinct)) || c.SingleTerms != 0 {
		t.Errorf("terms fused/single = %d/%d, want %d/0 (identical queries)",
			c.FusedTerms, c.SingleTerms, len(distinct))
	}
	if c.BlocksSaved == 0 {
		t.Error("blocks saved = 0; fusion shared no block visits")
	}
	if c.TermTraversals != c.FusedTerms {
		t.Errorf("traversals = %d, want %d (one per shared term)", c.TermTraversals, c.FusedTerms)
	}
	algotest.AssertSettled(t, "after drain", disk.Store())
}

// TestFusedFallbackUnsupportedView pins the degradation contract: over
// a view with no block walker every member runs the wrapped per-member
// path and results stay correct.
func TestFusedFallbackUnsupportedView(t *testing.T) {
	x := algotest.SmallIndex(t, 9)
	if fusedexec.Supported(x) {
		t.Fatal("in-memory index unexpectedly supports block walking")
	}
	const n = 3
	q := algotest.RandomQuery(x, 3, 11)
	opts := topk.Options{K: 5, Exact: true, Threads: 1}
	alg := bench.MakeAlgorithm(bench.AlgoSparta, x)
	want, _, err := alg.SearchContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}

	ex, eng := fusedExecutor(bench.MakeAlgorithm(bench.AlgoSparta, x), x, 250*time.Millisecond, n)
	release := algotest.Hold(ex)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := ex.SearchContext(context.Background(), q, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(want, res) {
				t.Errorf("fallback result differs\nwant: %v\ngot: %v", want, res)
			}
		}()
	}
	wg.Wait()
	release()
	ex.Drain()
	c := eng.Counters()
	if c.FusedMembers != 0 || c.FallbackMembers != n {
		t.Errorf("members fused/fallback = %d/%d, want 0/%d", c.FusedMembers, c.FallbackMembers, n)
	}
}

// TestFusedBudget pins both sides of the memory-budget contract. A
// budget that covers the dense accumulator changes nothing: the member
// fuses, matches the sequential result byte for byte, and the charge
// is refunded at finalization. A budget too small for the accumulator
// demotes the member to the sparse per-candidate fallback, where the
// wrapped algorithm's own budget handling applies — here it ooms (nil
// result, membudget.ErrMemoryBudget, StopReason "oom") — while the
// batch sibling completes exactly; either way the budget drains back
// to zero.
func TestFusedBudget(t *testing.T) {
	x := algotest.SmallIndex(t, 11)
	disk, err := diskindex.FromIndex(x, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(4 << 20))
	seq := bench.MakeAlgorithm(bench.AlgoSparta, disk)

	q := algotest.RandomQuery(x, 4, 7)
	base := topk.Options{K: 5, Exact: true, Threads: 1}
	want, _, err := seq.SearchContext(context.Background(), q, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		entries   int64
		wantErr   bool
		wantFused int64
	}{
		{"generous", int64(disk.NumDocs()) * 2, false, 2},
		{"starved", 1, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			budget := membudget.New(tc.entries * cmap.DocStateBytes)
			ex, eng := fusedExecutor(bench.MakeAlgorithm(bench.AlgoSparta, disk), disk, 250*time.Millisecond, 2)

			release := algotest.Hold(ex)
			var wg sync.WaitGroup
			var budRes, sibRes model.TopK
			var budSt topk.Stats
			var budErr, sibErr error
			wg.Add(2)
			go func() {
				defer wg.Done()
				opts := base
				opts.Budget = budget
				budRes, budSt, budErr = ex.SearchContext(context.Background(), q, opts)
			}()
			go func() {
				defer wg.Done()
				sibRes, _, sibErr = ex.SearchContext(context.Background(), q, base)
			}()
			wg.Wait()
			release()
			ex.Drain()

			if sibErr != nil {
				t.Fatalf("unbudgeted sibling failed: %v", sibErr)
			}
			if !reflect.DeepEqual(want, sibRes) {
				t.Errorf("sibling result differs\nwant: %v\ngot: %v", want, sibRes)
			}
			if c := eng.Counters(); c.FusedMembers != tc.wantFused {
				t.Errorf("fused members = %d, want %d", c.FusedMembers, tc.wantFused)
			}
			if tc.wantErr {
				if budErr != membudget.ErrMemoryBudget {
					t.Errorf("budgeted member err = %v, want ErrMemoryBudget", budErr)
				}
				if budRes != nil {
					t.Errorf("budgeted member result = %v, want nil on oom", budRes)
				}
				if budSt.StopReason != "oom" {
					t.Errorf("stop reason = %q, want oom", budSt.StopReason)
				}
			} else {
				if budErr != nil {
					t.Fatalf("budgeted member failed: %v", budErr)
				}
				if !reflect.DeepEqual(want, budRes) {
					t.Errorf("budgeted result differs\nwant: %v\ngot: %v", want, budRes)
				}
			}
			if used := budget.Used(); used != 0 {
				t.Errorf("budget used = %d after completion, want 0 (all charges released)", used)
			}
			algotest.AssertSettled(t, "after drain", disk.Store())
		})
	}
}

// TestFusedDeltaStop pins the anytime contract: a non-Exact member
// whose θ-heap has been stable for Delta stops with StopReason "delta"
// on its own clock instead of riding the traversal to the end, and the
// batch still settles. Delta of one nanosecond makes the stop fire at
// the member's first expiry check, deterministically.
func TestFusedDeltaStop(t *testing.T) {
	x := algotest.MediumIndex(t, 321)
	disk, err := diskindex.FromIndex(x, 4, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetPostingCache(plcache.NewWithBudget(8 << 20))

	const n = 2
	q := algotest.RandomQuery(x, 5, 77)
	opts := topk.Options{K: 10, Delta: time.Nanosecond, Threads: 1}
	ex, eng := fusedExecutor(bench.MakeAlgorithm(bench.AlgoSparta, disk), disk, 50*time.Millisecond, n)

	release := algotest.Hold(ex)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, st, err := ex.SearchContext(context.Background(), q, opts)
			if err != nil {
				t.Errorf("delta member: %v", err)
				return
			}
			if st.StopReason != "delta" {
				t.Errorf("stop reason = %q, want delta", st.StopReason)
			}
			if len(res) > opts.K {
				t.Errorf("got %d results, want at most %d", len(res), opts.K)
			}
		}()
	}
	wg.Wait()
	release()
	ex.Drain()
	if c := eng.Counters(); c.FusedMembers != n {
		t.Errorf("fused members = %d, want %d", c.FusedMembers, n)
	}
	algotest.AssertSettled(t, "after drain", disk.Store())
}
