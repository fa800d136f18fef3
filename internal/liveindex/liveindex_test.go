package liveindex_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/bench"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/liveindex"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
	"sparta/internal/xrand"
)

// testBags draws n document bags from a deterministic corpus with a
// neutral quality prior (live ingest indexes without priors).
func testBags(n int, seed uint64) [][]corpus.TermCount {
	c := corpus.New(corpus.Spec{
		Name: "live", Docs: n, Vocab: 180, ZipfS: 1.0,
		MeanDocLen: 40, MinDocLen: 5, Seed: seed, QualitySigma: 0,
	})
	bags := make([][]corpus.TermCount, n)
	for i := range bags {
		bags[i] = c.Doc(model.DocID(i))
	}
	return bags
}

// buildFresh is the reference: a single-segment build-once index over
// the first n bags.
func buildFresh(bags [][]corpus.TermCount, n int) *index.Index {
	b := index.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddBag(bags[i])
	}
	return b.Build()
}

func ramIO() *iomodel.Config {
	cfg := iomodel.RAMConfig()
	return &cfg
}

// slowIO charges enough simulated latency that an unsettled reader is
// visible — the backdrop for the settlement tests. Charges below
// SleepBatch stay owed until the reader is exhausted or settled.
func slowIO() *iomodel.Config {
	return &iomodel.Config{
		BlockSize:   256,
		CacheBlocks: 16,
		SeqLatency:  100 * time.Microsecond,
		RandLatency: 500 * time.Microsecond,
		SleepBatch:  10 * time.Millisecond,
	}
}

func appendAll(tb testing.TB, l *liveindex.Live, bags [][]corpus.TermCount) {
	tb.Helper()
	for i, bag := range bags {
		if _, err := l.AppendBag(bag); err != nil {
			tb.Fatalf("append %d: %v", i, err)
		}
	}
}

// bruteForceID names the reference algorithm among segAlgo's choices.
const bruteForceID bench.AlgoID = "BruteForce"

// segAlgo is the algorithm segFactory runs on every segment: an id of
// bench.AllAlgos, or bruteForceID. assertIdentity sets it per query.
var segAlgo = bruteForceID

// segFactory is the Config.Factory of the identity tests.
func segFactory(v postings.View) topk.Algorithm {
	if segAlgo == bruteForceID {
		return bruteForce{v}
	}
	return bench.MakeAlgorithm(segAlgo, v)
}

// bruteForce is topk.BruteForce as an Algorithm, reading through the
// view bound to the query so its charged reads settle like any
// algorithm's.
type bruteForce struct{ view postings.View }

func (bruteForce) Name() string { return string(bruteForceID) }

func (b bruteForce) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return b.SearchContext(context.Background(), q, opts)
}

func (b bruteForce) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	es := topk.NewExecState(ctx, nil)
	got := topk.BruteForce(es.BindView(b.view), q, opts.K)
	st := topk.Stats{StopReason: "exhausted"}
	es.Finish(st, nil)
	return got, st, nil
}

// exactSearch runs one exact query through the live index's
// per-segment path.
func exactSearch(tb testing.TB, l *liveindex.Live, q model.Query, k int) model.TopK {
	tb.Helper()
	got, _, err := l.Search(q, topk.Options{K: k, Exact: true, Threads: 2})
	if err != nil {
		tb.Fatalf("search %v: %v", q, err)
	}
	return got
}

// assertIdentity runs brute force and every exact algorithm on each
// segment of a live index opened with segFactory, through l.Search,
// against the fresh single-segment reference.
func assertIdentity(t *testing.T, label string, l *liveindex.Live, fresh *index.Index, queries []model.Query) {
	t.Helper()
	if l.NumDocs() != fresh.NumDocs() {
		t.Fatalf("%s: live has %d docs, fresh %d", label, l.NumDocs(), fresh.NumDocs())
	}
	for qi, q := range queries {
		k := 10 + qi*5
		want := topk.BruteForce(fresh, q, k)
		for _, id := range append([]bench.AlgoID{bruteForceID}, bench.AllAlgos...) {
			segAlgo = id
			algotest.AssertExact(t, fmt.Sprintf("%s/%s/q%d", label, id, qi), want, exactSearch(t, l, q, k))
		}
	}
}

// TestLiveIdentityAcrossLifecycle drives the index through every
// lifecycle stage — memtable only, frozen+memtable, post-compaction —
// and demands byte-identity with a fresh build at each point.
func TestLiveIdentityAcrossLifecycle(t *testing.T) {
	bags := testBags(900, 11)
	dir := t.TempDir()
	l, err := liveindex.Open(dir, liveindex.Config{
		IO: ramIO(), FlushDocs: 1 << 20, DisableCompaction: true, Factory: segFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	fresh := buildFresh(bags, 900)
	queries := []model.Query{
		algotest.RandomQuery(fresh, 3, 101),
		algotest.RandomQuery(fresh, 6, 103),
	}

	// Memtable only.
	appendAll(t, l, bags[:150])
	assertIdentity(t, "memtable", l, buildFresh(bags, 150), queries)

	// One frozen segment + memtable tail.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, bags[150:400])
	assertIdentity(t, "frozen+mem", l, buildFresh(bags, 400), queries)

	// Three frozen segments.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, bags[400:650])
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(l.SegmentStats()); got != 3 {
		t.Fatalf("segments = %d, want 3 frozen", got)
	}
	assertIdentity(t, "3frozen", l, buildFresh(bags, 650), queries)

	// Compacted + fresh memtable tail.
	merged, err := l.Compact()
	if err != nil || !merged {
		t.Fatalf("compact: merged=%v err=%v", merged, err)
	}
	appendAll(t, l, bags[650:900])
	assertIdentity(t, "compacted+mem", l, fresh, queries)
	algotest.AssertSettled(t, "end of lifecycle", l)
}

// TestLiveRandomInterleaving is the property test: a seeded random
// interleaving of appends, flushes and compactions must end
// byte-identical to the fresh build.
func TestLiveRandomInterleaving(t *testing.T) {
	for _, seed := range []uint64{3, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n = 500
			bags := testBags(n, seed)
			rng := xrand.New(seed * 977)
			l, err := liveindex.Open(t.TempDir(), liveindex.Config{
				IO: ramIO(), FlushDocs: 1 << 20, DisableCompaction: true, Factory: segFactory,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			for i := 0; i < n; i++ {
				if _, err := l.AppendBag(bags[i]); err != nil {
					t.Fatal(err)
				}
				switch r := rng.Float64(); {
				case r < 0.02:
					if err := l.Flush(); err != nil {
						t.Fatal(err)
					}
				case r < 0.03:
					if _, err := l.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			fresh := buildFresh(bags, n)
			queries := []model.Query{
				algotest.RandomQuery(fresh, 4, seed*13),
				algotest.RandomQuery(fresh, 7, seed*17),
			}
			assertIdentity(t, "interleaved", l, fresh, queries)
			algotest.AssertSettled(t, "after interleaving", l)
		})
	}
}

// TestLiveWALReplay covers the crash path: an index abandoned without
// Close must reopen to the same corpus from manifest + WAL, including
// with a torn record at the log's tail.
func TestLiveWALReplay(t *testing.T) {
	const n = 130
	all := testBags(n+40, 23)
	bags := all[:n]
	dir := t.TempDir()
	cfg := liveindex.Config{IO: ramIO(), FlushDocs: 50, DisableCompaction: true, Factory: segFactory}

	l1, err := liveindex.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l1, bags)
	if l1.NumDocs() != n {
		t.Fatalf("docs = %d, want %d", l1.NumDocs(), n)
	}
	// Crash: no Close, no flush of the 30-doc memtable tail.

	l2, err := liveindex.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildFresh(bags, n)
	queries := []model.Query{algotest.RandomQuery(fresh, 4, 5)}
	assertIdentity(t, "reopened", l2, fresh, queries)

	// The reopened index keeps ingesting where the crashed one stopped.
	appendAll(t, l2, all[n:])
	assertIdentity(t, "reopened+appended", l2, buildFresh(all, n+40), queries)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn tail: garbage after the intact prefix must be ignored.
	f, err := os.OpenFile(filepath.Join(dir, liveindex.WALFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{2, 0xff, 0xff, 0x00, 0x00, 0x13}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l3, err := liveindex.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l3.NumDocs() != n+40 {
		t.Fatalf("docs after torn-tail reopen = %d, want %d", l3.NumDocs(), n+40)
	}
	assertIdentity(t, "torn-tail", l3, buildFresh(all, n+40), queries)

	// Appends acknowledged after a torn-tail reopen must survive the
	// next reopen: Open truncates the garbage tail, so the new records
	// land contiguous with the intact prefix instead of behind bytes
	// that would wall off their replay.
	extra := testBags(12, 99)
	appendAll(t, l3, extra)
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	combined := append(append([][]corpus.TermCount{}, all...), extra...)
	l4, err := liveindex.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l4.Close()
	if l4.NumDocs() != len(combined) {
		t.Fatalf("docs after post-torn-append reopen = %d, want %d", l4.NumDocs(), len(combined))
	}
	assertIdentity(t, "post-torn-append", l4, buildFresh(combined, len(combined)), queries)
}

// TestLiveFlushFailureRollback injects a manifest-write failure
// mid-flush (after the frozen segment hit disk) and demands the flush
// roll back cleanly: the published epoch must never hold the flushed
// documents twice — once in the frozen segment and once in the
// memtable — and a retried flush must succeed.
func TestLiveFlushFailureRollback(t *testing.T) {
	const n = 60
	bags := testBags(n, 31)
	dir := t.TempDir()
	cfg := liveindex.Config{IO: ramIO(), FlushDocs: 1000, DisableCompaction: true, Factory: segFactory}
	l, err := liveindex.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, bags)

	// A directory squatting on the manifest's tmp path makes the
	// atomic write fail after flushLocked has already written and
	// opened the frozen segment.
	tmp := filepath.Join(dir, liveindex.ManifestFile+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err == nil {
		t.Fatal("flush with blocked manifest write succeeded, want error")
	}

	fresh := buildFresh(bags, n)
	queries := []model.Query{
		algotest.RandomQuery(fresh, 4, 11),
		algotest.RandomQuery(fresh, 7, 13),
	}
	assertIdentity(t, "after failed flush", l, fresh, queries)

	// Unblocked, the retried flush succeeds and identity still holds.
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	assertIdentity(t, "after retried flush", l, fresh, queries)
	algotest.AssertSettled(t, "after flush rollback", l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the orphaned segment directory from the failed attempt is
	// unreferenced by the manifest and must not confuse recovery.
	l2, err := liveindex.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertIdentity(t, "reopened after rollback", l2, fresh, queries)
}

// TestLiveAppendTokens exercises the token path: dictionary growth,
// deterministic id assignment, and identity with the builder's
// AddTokens on the same stream.
func TestLiveAppendTokens(t *testing.T) {
	docs := [][]string{
		{"the", "quick", "brown", "fox", "the"},
		{"lazy", "dog", "the", "dog"},
		{"quick", "quick", "fox", "jumps", "over", "lazy"},
		{"sparta", "retrieval", "top", "k", "the", "fox"},
	}
	l, err := liveindex.Open(t.TempDir(), liveindex.Config{IO: ramIO(), DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b := index.NewBuilder()
	for _, d := range docs {
		if _, err := l.AppendTokens(d); err != nil {
			t.Fatal(err)
		}
		b.AddTokens(d)
	}
	fresh := b.Build()

	for _, name := range []string{"the", "fox", "sparta"} {
		lt, lok := l.Lookup(name)
		ft, fok := fresh.Lookup(name)
		if lok != fok || lt != ft {
			t.Fatalf("Lookup(%q) = (%d,%v), builder says (%d,%v)", name, lt, lok, ft, fok)
		}
	}
	q := model.Query{0, 1, 2}
	algotest.AssertExact(t, "tokens", topk.BruteForce(fresh, q, 4), exactSearch(t, l, q, 4))
}

// TestLiveSettlement: frozen segments charge simulated I/O like any
// on-disk index; the debt must be zero after every completion path.
func TestLiveSettlement(t *testing.T) {
	bags := testBags(400, 31)
	l, err := liveindex.Open(t.TempDir(), liveindex.Config{
		IO: slowIO(), FlushDocs: 100, DisableCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, bags)

	// The most popular terms, and k 1: every segment's Sparta stops
	// before the ends of its lists, so its readers owe until settled.
	q := model.Query{0, 1, 2, 3}

	// Normal exact query, one Sparta per segment.
	if _, _, err := l.Search(q, topk.Options{K: 1, Exact: true, Threads: 4}); err != nil {
		t.Fatal(err)
	}
	algotest.AssertSettled(t, "after exact query", l)

	// Pre-cancelled query: the anytime contract returns a partial
	// result with the bill paid.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := l.SearchContext(ctx, q, topk.Options{K: 10, Exact: true, Threads: 2}); err != nil {
		t.Fatal(err)
	}
	algotest.AssertSettled(t, "after cancelled query", l)
}

// TestLiveCompactionCancelSettled: a compaction abandoned by
// cancellation settles its reads and leaves no partial segment —
// Unsettled()==0 on the cancelled path is an acceptance criterion.
func TestLiveCompactionCancelSettled(t *testing.T) {
	bags := testBags(400, 41)
	dir := t.TempDir()
	l, err := liveindex.Open(dir, liveindex.Config{
		IO: slowIO(), FlushDocs: 100, DisableCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, bags)
	if got := len(l.SegmentStats()); got != 4 {
		t.Fatalf("segments = %d, want 4", got)
	}

	// Already-cancelled context: the merge stops before writing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	merged, err := l.CompactContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if merged {
		t.Fatal("cancelled compaction reported a merge")
	}
	algotest.AssertSettled(t, "after cancelled compaction", l)
	if got := len(l.SegmentStats()); got != 4 {
		t.Fatalf("segments after cancelled compaction = %d, want 4", got)
	}

	// Cancellation racing a running merge: whichever way it lands, the
	// bill is settled and the index stays consistent.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel2()
	}()
	if _, err := l.CompactContext(ctx2); err != nil {
		t.Fatal(err)
	}
	cancel2()
	algotest.AssertSettled(t, "after racing cancellation", l)

	// No partial segment directories outside the manifest.
	segsOnDisk := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "seg-") {
			segsOnDisk[e.Name()] = true
		}
	}
	for _, st := range l.SegmentStats() {
		if st.Kind == "frozen" {
			delete(segsOnDisk, fmt.Sprintf("seg-%06d", st.Generation))
		}
	}
	if len(segsOnDisk) != 0 {
		t.Fatalf("stray segment directories after cancelled compaction: %v", segsOnDisk)
	}

	// And the index still answers exactly.
	fresh := buildFresh(bags, 400)
	q := algotest.RandomQuery(fresh, 4, 43)
	algotest.AssertExact(t, "post-cancel", topk.BruteForce(fresh, q, 10), exactSearch(t, l, q, 10))
	algotest.AssertSettled(t, "after post-cancel query", l)
}

// scripted is a fake per-segment algorithm that reports the stop
// reason scripted for its segment. It tells its segment by the first
// document its doc cursor yields: segment 0 holds the documents below
// split.
type scripted struct {
	view    postings.View
	split   model.DocID
	reasons *[2]string
}

func (s scripted) Name() string { return "scripted" }

func (s scripted) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return s.SearchContext(context.Background(), q, opts)
}

func (s scripted) SearchContext(_ context.Context, q model.Query, _ topk.Options) (model.TopK, topk.Stats, error) {
	seg := 0
	if c := s.view.DocCursor(q[0]); c.Next() && c.Doc() >= s.split {
		seg = 1
	}
	return model.TopK{}, topk.Stats{StopReason: s.reasons[seg]}, nil
}

// TestLiveStopReasonRanksSegments: the merged stop reason is the most
// telling segment's, in either segment order — a partial stop is never
// reported as safe because a later segment stopped safe.
func TestLiveStopReasonRanksSegments(t *testing.T) {
	var reasons [2]string
	l, err := liveindex.Open(t.TempDir(), liveindex.Config{
		IO: ramIO(), DisableCompaction: true,
		Factory: func(v postings.View) topk.Algorithm { return scripted{view: v, split: 3, reasons: &reasons} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 6; i++ {
		if i == 3 {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.AppendTokens([]string{"a"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(l.SegmentStats()); got != 2 {
		t.Fatalf("segments = %d, want 2", got)
	}
	a, _ := l.Lookup("a")

	for _, c := range []struct{ first, second, want string }{
		{"delta", "safe", "delta"},
		{topk.StopCancelled, "safe", topk.StopCancelled},
		{topk.StopDeadline, "delta", topk.StopDeadline},
		{"exhausted", "safe", "safe"},
		{"exhausted", "exhausted", "exhausted"},
	} {
		for _, order := range [][2]string{{c.first, c.second}, {c.second, c.first}} {
			reasons = order
			_, st, err := l.Search(model.Query{a}, topk.Options{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if st.StopReason != c.want {
				t.Errorf("segments stopped %v: merged stop %q, want %q", order, st.StopReason, c.want)
			}
		}
	}
}

// TestLiveObservedQueryIsOneQuery: an observer sees a query over a
// multi-segment epoch as one query — one QueryStart, one QueryFinish
// carrying the merged Stats — and no segment runs the query's recall
// probe, which measures one index's heap.
func TestLiveObservedQueryIsOneQuery(t *testing.T) {
	bags := testBags(300, 41)
	// Factory unset: core.New (Sparta) on every segment.
	l, err := liveindex.Open(t.TempDir(), liveindex.Config{IO: ramIO(), FlushDocs: 100, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, bags)
	if got := len(l.SegmentStats()); got < 3 {
		t.Fatalf("segments = %d, want >= 3", got)
	}
	fresh := buildFresh(bags, 300)
	q := algotest.RandomQuery(fresh, 4, 47)
	want := topk.BruteForce(fresh, q, 10)

	obs := &topk.RecordingObserver{}
	probe := topk.NewRecallProbe(want)
	got, st, err := l.Search(q, topk.Options{K: 10, Exact: true, Threads: 2, Observer: obs, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "observed", want, got)
	if obs.Queries() != 1 || obs.Finishes() != 1 {
		t.Errorf("observer saw %d starts / %d finishes, want 1/1", obs.Queries(), obs.Finishes())
	}
	if last, err := obs.Last(); err != nil || last != st {
		t.Errorf("observer last = (%+v, %v), want the merged (%+v, nil)", last, err, st)
	}
	if obs.HeapUpdates() == 0 {
		t.Error("observer saw no heap updates: the segments' execution events were lost")
	}
	if n := len(probe.Series().Points()); n != 0 {
		t.Errorf("a segment ran the recall probe (%d points)", n)
	}
}

// TestLiveBackgroundCompactor: the automatic path — flush-triggered
// kicks merge segments down while ingest continues, and identity
// holds throughout.
func TestLiveBackgroundCompactor(t *testing.T) {
	const n = 600
	bags := testBags(n, 53)
	l, err := liveindex.Open(t.TempDir(), liveindex.Config{
		IO: ramIO(), FlushDocs: 50, CompactSegments: 3, CompactMaxDocs: 1000, Factory: segFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, bags)

	// The compactor runs behind ingest; wait for it to catch up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		frozen := 0
		for _, st := range l.SegmentStats() {
			if st.Kind == "frozen" {
				frozen++
			}
		}
		if frozen <= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never caught up: %d frozen segments", frozen)
		}
		time.Sleep(10 * time.Millisecond)
	}

	fresh := buildFresh(bags, n)
	queries := []model.Query{algotest.RandomQuery(fresh, 5, 59)}
	assertIdentity(t, "background-compacted", l, fresh, queries)
	algotest.AssertSettled(t, "after background compaction", l)
}

// TestLiveConcurrentCompact hammers explicit Compact() from several
// goroutines while the background compactor runs behind ingest.
// Compactions serialize on compactMu, so none may fail with the
// overlapping-run splice error, and identity holds afterwards.
func TestLiveConcurrentCompact(t *testing.T) {
	const n = 600
	bags := testBags(n, 67)
	l, err := liveindex.Open(t.TempDir(), liveindex.Config{
		IO: ramIO(), FlushDocs: 50, CompactSegments: 3, CompactMaxDocs: 1000, Factory: segFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := l.Compact(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	appendAll(t, l, bags)
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent Compact: %v", err)
		}
	}

	fresh := buildFresh(bags, n)
	queries := []model.Query{algotest.RandomQuery(fresh, 5, 71)}
	assertIdentity(t, "concurrent-compact", l, fresh, queries)
	algotest.AssertSettled(t, "after concurrent compaction", l)
}

// TestLiveQueriesBesideAppends runs exact queries while another
// goroutine appends through several flushes, so queries read snapshots
// whose lists the appends go on extending by immutable prefix. Every
// answer must be well formed whatever epoch it pinned, and the index
// must end byte-identical to a fresh build with every charge settled.
func TestLiveQueriesBesideAppends(t *testing.T) {
	const n = 600
	bags := testBags(n, 79)
	l, err := liveindex.Open(t.TempDir(), liveindex.Config{
		IO: ramIO(), FlushDocs: 140, DisableCompaction: true, Factory: segFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fresh := buildFresh(bags, n)
	queries := []model.Query{algotest.RandomQuery(fresh, 3, 83), algotest.RandomQuery(fresh, 6, 89)}

	segAlgo = bench.AlgoSparta
	appended := make(chan error, 1)
	go func() {
		for i, bag := range bags {
			if _, err := l.AppendBag(bag); err != nil {
				appended <- fmt.Errorf("append %d: %w", i, err)
				return
			}
		}
		appended <- nil
	}()
	type answer struct {
		got model.TopK
		k   int
	}
	var answers []answer
	for running := true; running; {
		select {
		case err := <-appended:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		for qi, q := range queries {
			k := 5 + 10*qi
			answers = append(answers, answer{exactSearch(t, l, q, k), k})
		}
	}
	if l.Flushes() < 4 {
		t.Fatalf("%d flushes during the run, want 4", l.Flushes())
	}
	t.Logf("%d answers beside %d appends and %d flushes", len(answers), n, l.Flushes())
	for i, a := range answers {
		label := fmt.Sprintf("answer %d of %d", i, len(answers))
		algotest.AssertPartialTopK(t, label, a.got, a.k)
		for _, r := range a.got {
			if int(r.Doc) >= l.NumDocs() {
				t.Fatalf("%s: doc %d, the index holds %d", label, r.Doc, l.NumDocs())
			}
		}
	}
	assertIdentity(t, "beside-appends", l, fresh, queries)
	algotest.AssertSettled(t, "after queries beside appends", l)
}

// TestLiveSegmentStats sanity-checks the per-segment accounting the
// stat tooling prints.
func TestLiveSegmentStats(t *testing.T) {
	bags := testBags(250, 61)
	l, err := liveindex.Open(t.TempDir(), liveindex.Config{
		IO: ramIO(), FlushDocs: 100, DisableCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, bags)

	stats := l.SegmentStats()
	if len(stats) != 3 {
		t.Fatalf("segments = %d, want 2 frozen + 1 memtable", len(stats))
	}
	var lo model.DocID
	total := 0
	for i, st := range stats {
		if st.Lo != lo {
			t.Errorf("segment %d starts at %d, want %d (contiguous ranges)", i, st.Lo, lo)
		}
		if st.Docs != int(st.Hi-st.Lo) {
			t.Errorf("segment %d: docs=%d, range %d", i, st.Docs, st.Hi-st.Lo)
		}
		if st.Bytes <= 0 {
			t.Errorf("segment %d: bytes = %d", i, st.Bytes)
		}
		kind := "frozen"
		if i == len(stats)-1 {
			kind = "memtable"
		}
		if st.Kind != kind {
			t.Errorf("segment %d kind = %q, want %q", i, st.Kind, kind)
		}
		if st.Kind == "frozen" && st.Blocks <= 0 {
			t.Errorf("frozen segment %d reports %d blocks", i, st.Blocks)
		}
		lo = st.Hi
		total += st.Docs
	}
	if total != 250 {
		t.Errorf("segment docs sum to %d, want 250", total)
	}
}

// TestOpenRefusesOldManifests: a live directory whose manifest an older
// build wrote lists segments in a layout this build does not read; both
// ways into it return the typed error that says to rebuild, and leave
// the directory alone.
func TestOpenRefusesOldManifests(t *testing.T) {
	for _, version := range []int{1, 2, 3, 4, 6} {
		dir := t.TempDir()
		man := fmt.Sprintf(`{"version":%d,"next_gen":2,"wal_start":40,"segments":[{"dir":"seg-000001","gen":1,"lo":0,"hi":40,"docs":40}]}`, version)
		if err := os.WriteFile(filepath.Join(dir, liveindex.ManifestFile), []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, "seg-000001"), 0o755); err != nil {
			t.Fatal(err)
		}
		_, err := liveindex.Open(dir, liveindex.Config{IO: ramIO(), DisableCompaction: true})
		var re *diskindex.RebuildError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) || !strings.Contains(err.Error(), "rebuild") {
			t.Errorf("Open on a version-%d manifest: %v, want a *RebuildError that says rebuild", version, err)
		}
		if err := liveindex.VerifyDir(dir); !errors.As(err, &re) {
			t.Errorf("VerifyDir on a version-%d manifest: %v, want a *RebuildError", version, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "seg-000001")); err != nil {
			t.Errorf("version-%d manifest: refused open removed the segment directory: %v", version, err)
		}
	}
}
