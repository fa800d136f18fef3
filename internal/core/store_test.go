package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/cmap"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// Tests of the pooled candidate store's lifecycle: queries that share
// the pool do not see each other, an answer does not change when its
// store is reused, every way a query can end gives back a store the
// next query can trust, and the candidate peak is a true maximum.

// storeCase is an index on a store that keeps I/O debt until someone
// settles it, a query pool of every length 1–12, and the pool's exact
// answers.
type storeCase struct {
	disk  *diskindex.Index
	pool  []model.Query
	truth []model.TopK
}

const storeK = 10

func newStoreCase(t *testing.T, seed uint64) *storeCase {
	t.Helper()
	// Between algotest's small and medium index: long enough lists for
	// thousands of candidates, short enough for 1 600 queries under -race.
	x := index.FromCorpus(corpus.New(corpus.Spec{
		Name: "store", Docs: 1200, Vocab: 240, ZipfS: 1.0,
		MeanDocLen: 50, MinDocLen: 5, Seed: seed,
	}))
	disk, err := diskindex.FromIndex(x, iomodel.Config{
		BlockSize:   4096,
		CacheBlocks: 16,
		SeqLatency:  200 * time.Nanosecond,
		RandLatency: 500 * time.Nanosecond,
		SleepBatch:  time.Hour, // every charge stays owed until settled
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &storeCase{disk: disk}
	for m := 1; m <= 12; m++ {
		for j := 0; j < 4; j++ {
			q := algotest.RandomQuery(x, m, seed*1000+uint64(16*m+j))
			c.pool = append(c.pool, q)
			c.truth = append(c.truth, topk.BruteForce(x, q, storeK))
		}
	}
	return c
}

// identical compares an exact answer to pool[i] with brute force: every
// score and every document above the k-th score must match — which of
// several documents tied at exactly that score made the cut is the one
// free choice.
func (c *storeCase) identical(i int, got model.TopK) bool {
	want := c.truth[i]
	return len(got) == len(want) && slices.EqualFunc(got, want, func(g, w model.Result) bool {
		return g.Score == w.Score && (g.Doc == w.Doc || w.Score == want.MinScore())
	})
}

// assertExact runs pool[i] exactly and checks the answer.
func (c *storeCase) assertExact(t *testing.T, label string, i, threads int) model.TopK {
	t.Helper()
	got, st, err := New(c.disk).Search(c.pool[i], topk.Options{K: storeK, Exact: true, Threads: threads})
	if err != nil {
		t.Fatalf("%s: query %d: %v", label, i, err)
	}
	if !c.identical(i, got) {
		t.Fatalf("%s: query %d (%d terms, threads %d, stop %q):\n got %v\nwant %v", label, i, len(c.pool[i]), threads, st.StopReason, got, c.truth[i])
	}
	return got
}

func TestSpartaStoreIsolation(t *testing.T) {
	c := newStoreCase(t, 81)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			alg := New(c.disk)
			for n := 0; n < 200; n++ {
				i := (7*n + 13*g) % len(c.pool) // neighbours differ by 1–2 terms, the run covers 1–12
				threads := 1 << ((n + g) % 3)
				got, st, err := alg.Search(c.pool[i], topk.Options{K: storeK, Exact: true, Threads: threads})
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if !c.identical(i, got) {
					t.Errorf("goroutine %d query %d (%d terms, threads %d, stop %q):\n got %v\nwant %v", g, i, len(c.pool[i]), threads, st.StopReason, got, c.truth[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	algotest.AssertSettled(t, "after the shared-pool queries", c.disk.Store())
}

func TestSpartaAnswerSurvivesStoreReuse(t *testing.T) {
	c := newStoreCase(t, 82)
	for i := range c.pool {
		a := c.assertExact(t, "A", i, 1+i%2)
		kept := slices.Clone(a)
		// B runs on this goroutine right after A: it takes A's store.
		c.assertExact(t, "B", (i+17)%len(c.pool), 1+i%2)
		if !slices.Equal(a, kept) {
			t.Fatalf("query %d's answer changed once its store was reused:\n was %v\n now %v", i, kept, a)
		}
	}
}

// cancelAtSegment cancels the query's context when its n-th segment is
// scheduled: with n small, in the growing phase.
type cancelAtSegment struct {
	topk.NopObserver
	cancel context.CancelFunc
	n      int64
	seen   atomic.Int64
}

func (c *cancelAtSegment) SegmentScheduled(int) {
	if c.seen.Add(1) == c.n {
		c.cancel()
	}
}

func TestSpartaEveryStopGivesBackAUsableStore(t *testing.T) {
	c := newStoreCase(t, 83)
	long := len(c.pool) - 1 // a 12-term query: most of the corpus becomes a candidate
	budget := func() *membudget.Budget { return membudget.New(1 << 30) }

	stops := []struct {
		name string
		run  func(t *testing.T, b *membudget.Budget) (topk.Stats, error)
		b    *membudget.Budget
		want string
	}{
		{name: "oom", b: membudget.New(cmap.DocStateBytes), want: "oom",
			run: func(t *testing.T, b *membudget.Budget) (topk.Stats, error) {
				_, st, err := New(c.disk).Search(c.pool[long], topk.Options{K: storeK, Exact: true, Threads: 2, Budget: b})
				if !errors.Is(err, membudget.ErrMemoryBudget) {
					t.Fatalf("err = %v, want ErrMemoryBudget", err)
				}
				return st, nil
			}},
		{name: "cancelled", b: budget(), want: topk.StopCancelled,
			run: func(t *testing.T, b *membudget.Budget) (topk.Stats, error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				obs := &cancelAtSegment{cancel: cancel, n: 3}
				res, st, err := New(c.disk).SearchContext(ctx, c.pool[long], topk.Options{K: storeK, Exact: true, Threads: 2, SegSize: 64, Budget: b, Observer: obs})
				algotest.AssertPartialTopK(t, "cancelled", res, storeK)
				if st.Cleanings != 0 {
					t.Errorf("cancelled after %d cleaner passes, want the growing phase", st.Cleanings)
				}
				return st, err
			}},
		{name: "delta", b: budget(), want: "delta",
			run: func(t *testing.T, b *membudget.Budget) (topk.Stats, error) {
				// One worker, and the cleaner's first pass holds it until the
				// Δ timer — armed just before that pass — has ended the query.
				fired := make(chan struct{})
				obs := passObserver{onPass: func() { <-fired }}
				opts := topk.Options{K: storeK, Threads: 1, Delta: time.Millisecond, Budget: b, Observer: obs}.WithDefaults()
				es := topk.NewExecState(context.Background(), obs)
				es.Begin(c.pool[long], opts)
				r := newRun(es.BindView(c.disk), c.pool[long], opts, Config{}, es)
				r.idle = topk.NewIdleStop(opts, func() {
					r.finish("delta")
					close(fired) // expire runs at most once
				})
				res, st, err := r.run()
				es.Finish(st, err)
				algotest.AssertPartialTopK(t, "delta", res, storeK)
				return st, err
			}},
	}
	for _, stop := range stops {
		t.Run(stop.name, func(t *testing.T) {
			for round := 0; round < 3; round++ { // the pool may drop a store; three rounds reuse at least one
				st, err := stop.run(t, stop.b)
				if err != nil {
					t.Fatal(err)
				}
				if st.StopReason != stop.want {
					t.Fatalf("stop %q, want %q", st.StopReason, stop.want)
				}
				if used := stop.b.Used(); used != 0 {
					t.Fatalf("budget holds %d bytes after the %s stop", used, stop.name)
				}
				c.assertExact(t, "after "+stop.name, long-round, 1)
				c.assertExact(t, "after "+stop.name, round, 2)
			}
			algotest.AssertSettled(t, "after "+stop.name, c.disk.Store())
		})
	}
}

// TestSpartaCandidatesPeakIsAMaximum checks Stats.CandidatesPeak at
// Threads 4: it never decreases while the query runs, and it is at
// least the size the docMap had when the cleaner first went over it.
func TestSpartaCandidatesPeakIsAMaximum(t *testing.T) {
	c := newStoreCase(t, 84)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i := len(c.pool) - 12; i < len(c.pool); i++ { // 10–12 terms
			var r *run
			var preClean, lastPeak int64
			passes := 0
			obs := peakObserver{onPass: func(kept, dropped int) { // passes are serialized by cleanerBusy
				peak := r.peakDocs.Load()
				if peak < lastPeak {
					t.Errorf("procs %d query %d: peak fell from %d to %d between cleaner passes", procs, i, lastPeak, peak)
				}
				lastPeak = peak
				if passes == 0 {
					preClean = int64(kept + dropped)
				}
				passes++
			}}
			opts := topk.Options{K: storeK, Exact: true, Threads: 4, SegSize: 16, Observer: obs}.WithDefaults()
			es := topk.NewExecState(context.Background(), obs)
			es.Begin(c.pool[i], opts)
			r = newRun(es.BindView(c.disk), c.pool[i], opts, Config{}, es)
			res, st, err := r.run()
			es.Finish(st, err)
			if err != nil {
				t.Fatal(err)
			}
			if !c.identical(i, res) {
				t.Fatalf("procs %d query %d: got %v, want %v", procs, i, res, c.truth[i])
			}
			if passes == 0 || preClean == 0 {
				t.Fatalf("procs %d query %d: %d cleaner passes, first over %d candidates", procs, i, passes, preClean)
			}
			if st.CandidatesPeak < preClean || st.CandidatesPeak < lastPeak {
				t.Errorf("procs %d query %d: reported peak %d, but the docMap held %d at the first cleaning and the peak read %d at the last", procs, i, st.CandidatesPeak, preClean, lastPeak)
			}
		}
	}
	algotest.AssertSettled(t, "after the peak queries", c.disk.Store())
}

type peakObserver struct {
	topk.NopObserver
	onPass func(kept, dropped int)
}

func (o peakObserver) CleanerPass(kept, dropped int) { o.onPass(kept, dropped) }
