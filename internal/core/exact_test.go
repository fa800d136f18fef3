package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/cindex"
	"sparta/internal/cmap"
	"sparta/internal/index"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// Tests of what an exact query returns and of the work it does to get
// there: answers equal brute force byte for byte, scores included; a
// list's segments double from one block in either phase; and at Threads
// 1 the work counters of a fixed pool are committed numbers.

// TestSpartaExactScoresMatchBruteForce compares whole answers — every
// document and every score, with no resolution step — on the ram_long
// pool. A safe stop proves the set; the scores are complete only
// because Sparta fills in what its lists did not reach, and when phase 2
// ended by lookups, only because the completion waits for the workers:
// at Threads 2 and 4 one may still be setting a score it would set too.
//
// At Threads 4 each query runs once more with a cancel that strikes when
// the completion opens its first doc cursor, while the other workers
// complete their terms: the stop was proved before, so the answer is
// still brute force's, and the store and the budget end settled.
func TestSpartaExactScoresMatchBruteForce(t *testing.T) {
	matchBruteForce(t, topk.Options{Exact: true})

	view, pool := ramLongStack(t)
	if raceEnabled {
		pool = pool[:30]
	}
	struck := 0
	for i, q := range pool {
		budget := membudget.New(1 << 30)
		ctx, cancel := context.WithCancel(context.Background())
		v := &cancelAtCompletion{Index: view, cancel: cancel}
		got, st, err := New(v).SearchContext(ctx, q, topk.Options{K: 10, Exact: true, Threads: 4, Budget: budget})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, ramLongTruth.truth[i]) {
			t.Errorf("Threads 4 query %d cancelled during completion (stop %q):\n got %v\nwant %v", i, st.StopReason, got, ramLongTruth.truth[i])
		}
		algotest.AssertSettled(t, fmt.Sprintf("Threads 4 query %d", i), view.Store())
		if used := budget.Used(); used != 0 {
			t.Fatalf("Threads 4 query %d: budget still holds %d bytes", i, used)
		}
		if v.opened.Load() >= 2 {
			struck++
		}
	}
	if struck == 0 {
		t.Error("no query was cancelled while completing two or more terms")
	}
	t.Logf("%d of %d queries cancelled while completing two or more terms", struck, len(pool))
}

// cancelAtCompletion is an index whose bound form cancels the query the
// first time a doc-order cursor is opened: Sparta opens doc cursors only
// to complete an answer's scores.
type cancelAtCompletion struct {
	*cindex.Index
	cancel context.CancelFunc
	opened atomic.Int64
}

func (c *cancelAtCompletion) BindExec(ctx context.Context, onIO func(time.Duration), onStop func(), onCache func(bool)) postings.BoundView {
	return boundCancel{BoundView: c.Index.BindExec(ctx, onIO, onStop, onCache), c: c}
}

type boundCancel struct {
	postings.BoundView
	c *cancelAtCompletion
}

func (b boundCancel) DocCursor(t model.TermID) postings.DocCursor {
	b.c.opened.Add(1)
	b.c.cancel()
	return b.BoundView.DocCursor(t)
}

// TestSpartaDeltaSafeMatchesBruteForce is the same check for the Δ stop:
// with a Δ no query reaches, a query that reports safe proved its answer
// the way an exact one does, so it must return the same bytes, scores
// completed included.
func TestSpartaDeltaSafeMatchesBruteForce(t *testing.T) {
	matchBruteForce(t, topk.Options{Delta: time.Hour})
}

// ramLongTruth is topk.BruteForce's answer at k 10 to each query
// matchBruteForce runs, computed once: under -race it takes seconds.
var ramLongTruth struct {
	once  sync.Once
	truth []model.TopK
}

// matchBruteForce runs the ram_long pool at k 10 under opts at SegSize
// 64, 256 and 1024 and Threads 1, 2 and 4, and requires every answer that
// stopped safe to equal topk.BruteForce's, and at least one to have;
// every exact answer is compared, whatever its stop.
func matchBruteForce(t *testing.T, opts topk.Options) {
	view, pool := ramLongStack(t)
	if raceEnabled {
		// Ten times slower there; what it adds is interleavings, which a
		// quarter of the pool exercises.
		pool = pool[:30]
	}
	ramLongTruth.once.Do(func() {
		for _, q := range pool {
			ramLongTruth.truth = append(ramLongTruth.truth, topk.BruteForce(view, q, 10))
		}
	})
	truth := ramLongTruth.truth
	s := New(view)
	opts.K = 10
	for _, seg := range []int{64, 256, 1024} {
		for _, threads := range []int{1, 2, 4} {
			opts.SegSize, opts.Threads = seg, threads
			compared := 0
			for i, q := range pool {
				got, st, err := s.Search(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if st.StopReason != "safe" && !opts.Exact {
					continue
				}
				compared++
				if !slices.Equal(got, truth[i]) {
					t.Errorf("SegSize %d Threads %d query %d (stop %q):\n got %v\nwant %v", seg, threads, i, st.StopReason, got, truth[i])
				}
			}
			if compared == 0 {
				t.Errorf("SegSize %d Threads %d: no query stopped safe", seg, threads)
			}
		}
	}
}

// countingCursor counts the postings a score cursor has returned before
// and after latched() first reports true.
type countingCursor struct {
	postings.ScoreCursor
	latched func() bool
	n       *[2]int
}

func (c countingCursor) Next() bool {
	if !c.ScoreCursor.Next() {
		return false
	}
	if c.latched() {
		c.n[1]++
	} else {
		c.n[0]++
	}
	return true
}

// traceObserver calls onSegment at the start of every segment and
// onPass after every cleaner pass.
type traceObserver struct {
	topk.NopObserver
	onSegment func(term int)
	onPass    func(kept, dropped int)
}

func (o traceObserver) SegmentScheduled(term int)     { o.onSegment(term) }
func (o traceObserver) CleanerPass(kept, dropped int) { o.onPass(kept, dropped) }

// segment is where one segment of a list began, and whether UBStop had
// latched by then.
type segment struct {
	start   int
	latched bool
}

// pass is what one cleaner pass left: the postings read by then, the
// candidates it kept, the (candidate, term) scores they still missed in
// live lists and what looking them up is worth in postings —
// ResidentLookupPostings for a lookup whose block is resident, a block
// for any other — and the postings one more round of segments would
// read: the two sides of the switch to lookups.
type pass struct {
	read, kept, missing, price, round int
}

// runTrace is one query run at Threads 1, followed from inside: per term
// the segments its list was read in; the postings read before and after
// UBStop latched; the docMap's size when it latched; and every cleaner
// pass. A last pass that kept more than the heap is the switch to
// lookups.
type runTrace struct {
	segs          [][]segment
	before, after int
	atUBStop      int
	passes        []pass
	st            topk.Stats
}

// traceRun runs q under cfg at Threads 1 and traces it.
func traceRun(t *testing.T, view postings.View, q model.Query, cfg Config, opts topk.Options) runTrace {
	t.Helper()
	var r *run
	tr := runTrace{segs: make([][]segment, len(q)), atUBStop: -1}
	read := make([][2]int, len(q))
	latched := func() bool {
		if !r.ubStop.Load() {
			return false
		}
		if tr.atUBStop < 0 {
			tr.atUBStop = r.docMap.Load().Len()
		}
		return true
	}
	obs := traceObserver{
		onSegment: func(i int) {
			tr.segs[i] = append(tr.segs[i], segment{read[i][0] + read[i][1], latched()})
		},
		onPass: func(kept, dropped int) {
			if tr.atUBStop < 0 {
				tr.atUBStop = kept + dropped // the map this pass cleaned
			}
			p := pass{kept: kept}
			r.docMap.Load().Range(func(d *cmap.DocState) bool {
				for i := range q {
					if d.ScoreAt(i) == 0 && r.ubs.Get(i) > 0 {
						p.missing++
						if view.Resident(q[i], d.ID) {
							p.price += ResidentLookupPostings
						} else {
							p.price += postings.BlockSize
						}
					}
				}
				return true
			})
			for i, c := range r.cursors {
				n := read[i][0] + read[i][1]
				p.read += n
				if r.ubs.Get(i) > 0 {
					p.round += min(opts.SegSize, c.Len()-n)
				}
			}
			tr.passes = append(tr.passes, p)
		},
	}
	opts.Threads, opts.Observer = 1, obs
	opts = opts.WithDefaults()
	es := topk.NewExecState(context.Background(), obs)
	r = newRun(view, q, opts, cfg, es)
	for i := range r.cursors {
		r.cursors[i] = countingCursor{r.cursors[i], latched, &read[i]}
	}
	_, st, err := r.run()
	es.Finish(st, err)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range read {
		tr.before += n[0]
		tr.after += n[1]
	}
	tr.st = st
	return tr
}

// TestSpartaPhase2Price reports where an exact query's work goes on the
// ram_long pool at Threads 1 (run with -v for one row per query, and a
// summary): postings read before and after UBStop, the docMap at UBStop,
// the first cleaner pass's candidates, their missing scores and the next
// round's postings, and the candidates left at the last pass — more than
// the heap when phase 2 ended by lookups. It checks that the counts
// agree with Stats and that every switch to lookups obeyed its rule: the
// missing scores' price, each ResidentLookupPostings where its block is
// resident and a block where it is not, at most the round's postings.
func TestSpartaPhase2Price(t *testing.T) {
	view, pool := ramLongStack(t)
	const k = 10
	cols := []string{"before", "after", "share‰", "atUBStop", "kept1", "missing1", "round1", "afterPass1", "atSwitch", "passes", "lookups"}
	vals := make(map[string][]int)
	for qi, q := range pool {
		tr := traceRun(t, view, q, Config{}, topk.Options{K: k, Exact: true})
		if got := int64(tr.before + tr.after); got != tr.st.Postings {
			t.Fatalf("query %d: %d postings traced, Stats says %d", qi, got, tr.st.Postings)
		}
		if len(tr.passes) == 0 || tr.st.StopReason != "safe" {
			t.Fatalf("query %d: stop %q after %d cleaner passes, want safe after at least one", qi, tr.st.StopReason, len(tr.passes))
		}
		first, last := tr.passes[0], tr.passes[len(tr.passes)-1]
		row := map[string]int{
			"before": tr.before, "after": tr.after, "share‰": 1000 * tr.after / (tr.before + tr.after),
			"atUBStop": tr.atUBStop, "kept1": first.kept, "missing1": first.missing, "round1": first.round,
			"afterPass1": tr.before + tr.after - first.read, "passes": len(tr.passes), "lookups": int(tr.st.RandomAccesses),
		}
		if last.kept > k {
			if last.price > last.round {
				t.Errorf("query %d: switched to lookups with %d missing scores priced at %d postings against a round of %d", qi, last.missing, last.price, last.round)
			}
			row["atSwitch"] = last.kept
			vals["atSwitch"] = append(vals["atSwitch"], last.kept)
		}
		line := fmt.Sprintf("query %3d:", qi)
		for _, c := range cols {
			line += fmt.Sprintf(" %s %d", c, row[c])
			if c != "atSwitch" {
				vals[c] = append(vals[c], row[c])
			}
		}
		t.Log(line)
	}
	summary := fmt.Sprintf("mean / median over %d queries (atSwitch over the %d that ended by lookups):", len(pool), len(vals["atSwitch"]))
	for _, c := range cols {
		xs := slices.Sorted(slices.Values(vals[c]))
		if len(xs) == 0 {
			summary += fmt.Sprintf(" %s -", c)
			continue
		}
		sum := 0
		for _, x := range xs {
			sum += x
		}
		summary += fmt.Sprintf(" %s %.1f / %d", c, float64(sum)/float64(len(xs)), xs[len(xs)/2])
	}
	t.Log(summary)
}

// TestSpartaSegmentsGrowFromOneBlock pins the growing phase's schedule:
// with the heap never full, UBStop cannot latch, and a 1 000-posting
// list is read in segments of 64, 128, 256 and 512 postings, then one
// that finds its end.
func TestSpartaSegmentsGrowFromOneBlock(t *testing.T) {
	b := index.NewBuilder()
	for d := 0; d < 1000; d++ {
		b.AddTokens([]string{"term", fmt.Sprintf("d%d", d)})
	}
	x := b.Build()
	term, _ := x.Lookup("term")
	segs := traceRun(t, x, model.Query{term}, Config{}, topk.Options{K: 2000, Exact: true}).segs
	var starts []int
	for _, s := range segs[0] {
		starts = append(starts, s.start)
	}
	if want := []int{0, 64, 192, 448, 960}; !slices.Equal(starts, want) {
		t.Errorf("segments began at postings %v, want %v", starts, want)
	}
}

// TestSpartaSegmentsDoubleInEitherPhase checks the schedule on the
// ram_long pool: the j-th segment of a list is min(64·2^j, SegSize)
// postings whether or not UBStop had latched when it began. A list's last
// segment is cut short by its end or by the stop and is not measured.
// The default configuration usually ends phase 2 by lookups at its first
// cleaner pass, so a list's one segment after the latch is its last; the
// NoCleanerShrink ablation keeps the paper's phase 2 in the same
// segments, and at least one of its measured segments must have begun
// after the latch, or the check says nothing about phase 2.
func TestSpartaSegmentsDoubleInEitherPhase(t *testing.T) {
	view, pool := ramLongStack(t)
	for _, seg := range []int{256, 1024} {
		for _, tc := range []struct {
			name string
			cfg  Config
		}{{"default", Config{}}, {"NoCleanerShrink", Config{NoCleanerShrink: true}}} {
			cfg, afterLatch := tc.cfg, 0
			for qi, q := range pool[:20] {
				for i, list := range traceRun(t, view, q, cfg, topk.Options{K: 10, Exact: true, SegSize: seg}).segs {
					want := min(postings.BlockSize, seg)
					for j := 0; j+1 < len(list); j, want = j+1, min(2*want, seg) {
						if got := list[j+1].start - list[j].start; got != want {
							t.Fatalf("%s SegSize %d query %d term %d segment %d (UBStop %v): %d postings, want %d", tc.name, seg, qi, i, j, list[j].latched, got, want)
						}
						if list[j].latched {
							afterLatch++
						}
					}
				}
			}
			if afterLatch == 0 && cfg.NoCleanerShrink {
				t.Errorf("%s SegSize %d: no measured segment began after UBStop in 20 queries", tc.name, seg)
			}
			t.Logf("%s SegSize %d: %d measured segments began after UBStop", tc.name, seg, afterLatch)
		}
	}
}

// exactPostingsAtThreads1 is the postings the exact default row of
// TestSpartaWorkAtThreads1 reads over the ram_long pool.
const exactPostingsAtThreads1 = 292_341

// TestSpartaWorkAtThreads1 gates work, not time: at Threads 1 the job
// order is deterministic, so these sums over the ram_long pool repeat
// exactly. A change that moves one changed what Sparta does — if it
// was meant to, update the row in the same diff.
func TestSpartaWorkAtThreads1(t *testing.T) {
	view, pool := ramLongStack(t)
	rows := []struct {
		name                                       string
		cfg                                        Config
		opts                                       topk.Options
		postings, cleanings, peak, inserts, random int64
	}{
		{"SegSize 64", Config{}, topk.Options{Exact: true, SegSize: 64}, 823_488, 1_686, 114_794, 5_390, 4_948},
		{"SegSize 256", Config{}, topk.Options{Exact: true, SegSize: 256}, 355_111, 156, 128_207, 5_394, 16_148},
		{"SegSize 1024", Config{}, topk.Options{Exact: true}, exactPostingsAtThreads1, 120, 128_207, 5_393, 22_749}, // DefaultSegSize
		// The probabilistic stop of an exact query ends phase 2 by lookups
		// too, and completes what it keeps: it reads less than the exact run.
		{"ProbEpsilon", Config{ProbEpsilon: 0.05}, topk.Options{Exact: true}, 211_391, 120, 78_821, 5_385, 23_170},
		// The Δ rule with a Δ no query reaches ends phase 2 by lookups as
		// the exact query does, and so does the same work (checked below).
		// Only the NoCleanerShrink ablation keeps the paper's phase 2, in the
		// same doubling segments: it reads every list to its end, so only
		// its cleanings follow the schedule, and it makes no lookup.
		{"Δ", Config{}, topk.Options{Delta: time.Hour}, 292_341, 120, 128_207, 5_393, 22_749},
		{"NoCleanerShrink", Config{NoCleanerShrink: true}, topk.Options{Exact: true}, 11_183_215, 4_776, 128_207, 5_396, 0},
	}
	measured := make(map[string][5]int64, len(rows))
	for _, want := range rows {
		s := NewWithConfig(view, want.cfg)
		opts := want.opts
		opts.K, opts.Threads = 10, 1
		var got struct{ postings, cleanings, peak, inserts, random int64 }
		for _, q := range pool {
			_, st, err := s.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got.postings += st.Postings
			got.cleanings += st.Cleanings
			got.peak += st.CandidatesPeak
			got.inserts += st.HeapInserts
			got.random += st.RandomAccesses
		}
		if got.postings != want.postings || got.cleanings != want.cleanings || got.peak != want.peak ||
			got.inserts != want.inserts || got.random != want.random {
			t.Errorf("%s over %d queries: postings %d, cleanings %d, candidate peak %d, heap inserts %d, random accesses %d;\nwant %d, %d, %d, %d, %d",
				want.name, len(pool), got.postings, got.cleanings, got.peak, got.inserts, got.random,
				want.postings, want.cleanings, want.peak, want.inserts, want.random)
		}
		measured[want.name] = [5]int64{got.postings, got.cleanings, got.peak, got.inserts, got.random}
	}
	if measured["Δ"] != measured["SegSize 1024"] {
		t.Errorf("the Δ row %v drifted from the exact SegSize 1024 row %v", measured["Δ"], measured["SegSize 1024"])
	}
}

// TestSpartaWorkAcrossThreads gates the work a second and a fourth
// worker add: the postings an exact query reads over the ram_long pool
// at Threads 2 and 4, as a ratio to the Threads 1 row (the median of
// three passes), must stay within 1.6×. It runs on one
// P: across cores the work follows which worker the host runs, and a
// loaded host (go test runs packages side by side) read 3.6× at Threads
// 2; on one P the workers interleave only where the runtime switches
// them. What it catches is a switch to lookups that falls later as
// workers are added — while the lookups were priced as serial, 2.0×
// at Threads 2 and 3.5× at Threads 4 here. Medians of 60 runs, half
// beside a CPU-bound test, read 1.00–1.38× and 1.00×
// (results/threads_flat_work.txt, which also has the multi-core
// numbers); with resident lookups priced at ResidentLookupPostings, ten
// runs read 1.00–1.28× and 1.00× (results/lookup_price.txt). The race
// detector randomizes the run queue and slows each pass tenfold, so
// there one pass must stay within 3×: 12 runs read up to 1.31× and
// 2.14×, the serial pricing 2.3× and 6.1×.
func TestSpartaWorkAcrossThreads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	view, pool := ramLongStack(t)
	s := New(view)
	passes, band := 3, 1.6
	if raceEnabled {
		passes, band = 1, 3
	}
	for _, threads := range []int{2, 4} {
		var ratios []float64
		for range passes {
			var postings int64
			for _, q := range pool {
				_, st, err := s.Search(q, topk.Options{K: 10, Exact: true, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				postings += st.Postings
			}
			ratios = append(ratios, float64(postings)/exactPostingsAtThreads1)
		}
		slices.Sort(ratios)
		median := ratios[len(ratios)/2]
		t.Logf("Threads %d: %.3f× the postings of Threads 1 (passes %.3f)", threads, median, ratios)
		if median > band {
			t.Errorf("Threads %d read %.2f× the postings of Threads 1 over %d queries (passes %.2f); the band is %.1f×",
				threads, median, len(pool), ratios, band)
		}
	}
}
