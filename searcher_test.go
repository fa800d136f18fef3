package sparta_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparta"
	"sparta/internal/algos/algotest"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// bigSlowIndex builds a corpus large enough, over storage slow enough,
// that an uncancelled exact query takes hundreds of milliseconds —
// the backdrop for the timeout tests.
func bigSlowIndex(tb testing.TB) (*index.Index, *diskindex.Index) {
	tb.Helper()
	c := corpus.New(corpus.Spec{
		Name: "big", Docs: 5000, Vocab: 500, ZipfS: 1.0,
		MeanDocLen: 60, MinDocLen: 5, Seed: 99,
	})
	mem := index.FromCorpus(c)
	disk, err := diskindex.FromIndex(mem, diskindex.DefaultShards, iomodel.Config{
		BlockSize:   256,
		CacheBlocks: 16,
		SeqLatency:  200 * time.Microsecond,
		RandLatency: time.Millisecond,
		SleepBatch:  time.Microsecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return mem, disk
}

func popularQuery(m int) sparta.Query {
	// The corpus generator's Zipf makes low term ids the most popular —
	// the longest posting lists, hence the slowest exact queries.
	q := make(sparta.Query, m)
	for i := range q {
		q[i] = model.TermID(i)
	}
	return q
}

// TestSearcherTimeoutReturnsPartial is the acceptance check: a 1 ms
// timeout against a slow large corpus returns a partial result, with
// the right stop reason, in well under the uncancelled latency.
func TestSearcherTimeoutReturnsPartial(t *testing.T) {
	_, disk := bigSlowIndex(t)
	q := popularQuery(6)
	opts := sparta.Options{K: 10, Threads: 4, Exact: true}

	// Uncancelled baseline.
	free := sparta.NewSearcher(sparta.New(disk), sparta.SearcherConfig{})
	disk.Store().Flush()
	res, st, err := free.Search(q, opts)
	if err != nil || len(res) == 0 {
		t.Fatalf("baseline: %v, %d results", err, len(res))
	}
	baseline := st.Duration
	if baseline < 50*time.Millisecond {
		t.Logf("baseline only %v; timeout margin is thin on this machine", baseline)
	}

	s := sparta.NewSearcher(sparta.New(disk), sparta.SearcherConfig{Timeout: time.Millisecond})
	disk.Store().Flush()
	res, st, err = s.Search(q, opts)
	if err != nil {
		t.Fatalf("timed-out query returned error %v, want nil (anytime partial)", err)
	}
	if st.StopReason != sparta.StopDeadline && st.StopReason != sparta.StopCancelled {
		t.Errorf("StopReason = %q, want deadline or cancelled", st.StopReason)
	}
	if baseline > 100*time.Millisecond && st.Duration > baseline/2 {
		t.Errorf("timed-out query took %v, want well under the %v baseline", st.Duration, baseline)
	}
	c := s.Counters()
	if c.Queries != 1 || c.Deadline+c.Cancelled != 1 {
		t.Errorf("counters = %+v, want 1 query, 1 deadline/cancelled", c)
	}
}

func TestSearcherCallerContextWins(t *testing.T) {
	_, disk := bigSlowIndex(t)
	s := sparta.NewSearcher(sparta.New(disk), sparta.SearcherConfig{Timeout: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, st, err := s.SearchContext(ctx, popularQuery(3), sparta.Options{K: 5, Exact: true})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if st.StopReason != sparta.StopCancelled {
		t.Errorf("StopReason = %q, want %q", st.StopReason, sparta.StopCancelled)
	}
	if len(res) != 0 {
		t.Errorf("pre-cancelled query returned %d results", len(res))
	}
}

func TestSearcherMaxConcurrent(t *testing.T) {
	// A blocking fake algorithm: each query parks until released, so the
	// test controls exactly how many are in flight.
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	blocker := &blockingAlg{release: release, started: started}
	s := sparta.NewSearcher(blocker, sparta.SearcherConfig{MaxConcurrent: 2})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Search(sparta.Query{1}, sparta.Options{K: 1})
		}()
	}
	<-started
	<-started // both slots occupied

	// A third query with a cancellable context must be turned away at
	// admission, without executing.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, st, err := s.SearchContext(ctx, sparta.Query{1}, sparta.Options{K: 1})
	if err != nil {
		t.Fatalf("admission-rejected query returned error %v", err)
	}
	if st.StopReason != sparta.StopDeadline {
		t.Errorf("StopReason = %q, want %q", st.StopReason, sparta.StopDeadline)
	}
	if len(res) != 0 {
		t.Errorf("rejected query returned %d results", len(res))
	}
	if got := blocker.calls.Load(); got != 2 {
		t.Errorf("algorithm ran %d times, want 2 (third rejected at admission)", got)
	}

	close(release)
	wg.Wait()
	c := s.Counters()
	if c.Queries != 3 || c.Rejected != 1 || c.Deadline != 1 {
		t.Errorf("counters = %+v, want 3 queries / 1 rejected / 1 deadline", c)
	}
	if c.InFlight != 0 {
		t.Errorf("in-flight = %d after all queries done", c.InFlight)
	}
}

func TestSearcherConcurrentCounters(t *testing.T) {
	_, disk := bigSlowIndex(t)
	var obs sparta.RecordingObserver
	s := sparta.NewSearcher(sparta.New(disk), sparta.SearcherConfig{
		Timeout:       20 * time.Millisecond,
		MaxConcurrent: 4,
		Observer:      &obs,
	})
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := sparta.Query{model.TermID(i % 5), model.TermID(5 + i%7)}
			if _, _, err := s.Search(q, sparta.Options{K: 5, Threads: 2, Exact: true}); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	c := s.Counters()
	if c.Queries != n {
		t.Errorf("queries = %d, want %d", c.Queries, n)
	}
	if c.InFlight != 0 {
		t.Errorf("in-flight = %d, want 0", c.InFlight)
	}
	if c.Errors != 0 {
		t.Errorf("errors = %d", c.Errors)
	}
	if obs.Queries() != int64(n) || obs.Finishes() != int64(n) {
		t.Errorf("observer saw %d/%d query lifecycles, want %d/%d",
			obs.Queries(), obs.Finishes(), n, n)
	}
}

// blockingAlg parks every Search until release is closed.
type blockingAlg struct {
	release chan struct{}
	started chan struct{}
	calls   atomic.Int64
}

func (b *blockingAlg) Name() string { return "blocking" }

func (b *blockingAlg) Search(q sparta.Query, opts sparta.Options) (sparta.TopK, sparta.Stats, error) {
	return b.SearchContext(context.Background(), q, opts)
}

func (b *blockingAlg) SearchContext(ctx context.Context, q sparta.Query, opts sparta.Options) (sparta.TopK, sparta.Stats, error) {
	b.calls.Add(1)
	b.started <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	return sparta.TopK{}, sparta.Stats{StopReason: "exhausted"}, nil
}

var _ topk.Algorithm = (*blockingAlg)(nil)

// parkAlg parks each query until a token arrives on proceed (or its
// context ends), so tests control queue timing one query at a time.
type parkAlg struct {
	started chan struct{}
	proceed chan struct{}
	calls   atomic.Int64
}

func (p *parkAlg) Name() string { return "park" }

func (p *parkAlg) Search(q sparta.Query, opts sparta.Options) (sparta.TopK, sparta.Stats, error) {
	return p.SearchContext(context.Background(), q, opts)
}

func (p *parkAlg) SearchContext(ctx context.Context, q sparta.Query, opts sparta.Options) (sparta.TopK, sparta.Stats, error) {
	p.calls.Add(1)
	p.started <- struct{}{}
	select {
	case <-p.proceed:
	case <-ctx.Done():
	}
	return sparta.TopK{}, sparta.Stats{StopReason: "exhausted"}, nil
}

// TestSearcherLoadShedding drives the load-aware admission path: once
// the observed queue wait exceeds a query's remaining context budget,
// the searcher sheds it up front (ErrAdmissionShed, StopReason "shed")
// instead of letting it time out in line, and the algorithm never runs.
func TestSearcherLoadShedding(t *testing.T) {
	p := &parkAlg{started: make(chan struct{}, 8), proceed: make(chan struct{})}
	s := sparta.NewSearcher(p, sparta.SearcherConfig{MaxConcurrent: 1, ShedQuantile: 0.5})

	var wg sync.WaitGroup
	// A occupies the only slot.
	wg.Add(1)
	go func() { defer wg.Done(); s.Search(sparta.Query{1}, sparta.Options{K: 1}) }()
	<-p.started

	// B queues behind A long enough to seed the admission-wait ring.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, _, err := s.SearchContext(ctx, sparta.Query{1}, sparta.Options{K: 1}); err != nil {
			t.Errorf("queued query: %v", err)
		}
	}()
	time.Sleep(60 * time.Millisecond)
	p.proceed <- struct{}{} // A returns; B admits with a ~60ms recorded wait
	<-p.started
	p.proceed <- struct{}{} // B returns
	wg.Wait()

	// C occupies the slot again.
	wg.Add(1)
	go func() { defer wg.Done(); s.Search(sparta.Query{1}, sparta.Options{K: 1}) }()
	<-p.started

	// D's remaining budget (5ms) is far under the observed queue wait:
	// shed at admission without executing.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, st, err := s.SearchContext(ctx, sparta.Query{1}, sparta.Options{K: 1})
	if !errors.Is(err, sparta.ErrAdmissionShed) {
		t.Fatalf("err = %v, want ErrAdmissionShed", err)
	}
	if st.StopReason != sparta.StopShed {
		t.Errorf("StopReason = %q, want %q", st.StopReason, sparta.StopShed)
	}
	if len(res) != 0 {
		t.Errorf("shed query returned %d results", len(res))
	}

	// A query without a deadline cannot be shed — it queues instead.
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		if _, _, err := s.Search(sparta.Query{1}, sparta.Options{K: 1}); err != nil {
			t.Errorf("deadline-free query: %v", err)
		}
	}()
	select {
	case <-done:
		t.Fatal("deadline-free query returned while the slot was held")
	case <-time.After(20 * time.Millisecond):
	}
	p.proceed <- struct{}{} // release C; the queued query admits
	<-p.started
	p.proceed <- struct{}{}
	wg.Wait()

	c := s.Counters()
	if c.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", c.Shed)
	}
	if got := p.calls.Load(); got != 4 {
		t.Errorf("algorithm ran %d times, want 4 (shed query never executed)", got)
	}
}

// TestSearcherBatchFieldsHaveNoEffect configures every kept batching
// field of SearcherConfig and checks that nothing changes: concurrent
// exact queries answer byte for byte what a plain Searcher answers, the
// store is settled the moment the last query returns (no Drain), and
// the frozen <prefix>.batch.* names are registered, each reading 0.
func TestSearcherBatchFieldsHaveNoEffect(t *testing.T) {
	_, disk := bigSlowIndex(t)
	cache := sparta.NewPostingCache(8 << 20)
	disk.SetPostingCache(cache)

	plain := sparta.NewSearcher(sparta.New(disk), sparta.SearcherConfig{})
	configured := sparta.NewSearcher(sparta.New(disk), sparta.SearcherConfig{
		BatchWindow:   time.Hour,
		MaxBatch:      8,
		FusedExec:     true,
		BatchWarmView: disk,
	})

	const n = 8
	qs := make([]sparta.Query, n)
	for i := range qs {
		qs[i] = popularQuery(3 + i%2) // heavy term overlap across queries
	}
	opts := sparta.Options{K: 10, Exact: true, Threads: 1}
	want := make([]sparta.TopK, n)
	for i, q := range qs {
		res, _, err := plain.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	got := make([]sparta.TopK, n)
	var wg sync.WaitGroup
	for i := range qs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := configured.Search(qs[i], opts)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			got[i] = res
		}()
	}
	wg.Wait()
	algotest.AssertSettled(t, "when the last query returned", disk.Store())
	for i := range qs {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("query %d: %v, want %v", i, got[i], want[i])
		}
	}

	r := sparta.NewMetricsRegistry()
	configured.RegisterMetrics(r, "s")
	snap := r.Snapshot()
	for _, name := range []string{
		"batches", "batched_queries", "coalesced", "fused_batches",
		"warmed_blocks", "fused_members", "fused_fallback_members",
		"fused_traversals", "fused_blocks_saved", "detach_early",
		"fused_block_skips", "fused_ub_stops", "fused_resolve_ra",
	} {
		v, ok := snap["s.batch."+name]
		if !ok {
			t.Errorf("s.batch.%s not registered", name)
			continue
		}
		if v != int64(0) {
			t.Errorf("s.batch.%s = %v, want 0", name, v)
		}
	}
}
