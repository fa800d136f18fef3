package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sparta/internal/index"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// Tests of what an exact query returns and of the work it does to get
// there: answers equal brute force byte for byte, scores included; the
// growing phase's segments double from one block; and at Threads 1 the
// work counters of a fixed pool are committed numbers.

// TestSpartaExactScoresMatchBruteForce compares whole answers — every
// document and every score, with no resolution step — on the ram_long
// pool. A safe stop proves the set; the scores are complete only
// because Sparta fills in what its lists did not reach.
func TestSpartaExactScoresMatchBruteForce(t *testing.T) {
	view, pool := ramLongStack(t)
	truth := make([]model.TopK, len(pool))
	for i, q := range pool {
		truth[i] = topk.BruteForce(view, q, 10)
	}
	s := New(view)
	for _, seg := range []int{64, 256, 1024} {
		for _, threads := range []int{1, 2} {
			for i, q := range pool {
				got, st, err := s.Search(q, topk.Options{K: 10, Exact: true, Threads: threads, SegSize: seg})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, truth[i]) {
					t.Errorf("SegSize %d Threads %d query %d (stop %q):\n got %v\nwant %v", seg, threads, i, st.StopReason, got, truth[i])
				}
			}
		}
	}
}

// countingCursor counts the postings a score cursor has returned.
type countingCursor struct {
	postings.ScoreCursor
	n *int
}

func (c countingCursor) Next() bool {
	if !c.ScoreCursor.Next() {
		return false
	}
	*c.n++
	return true
}

// segmentObserver calls onSegment at the start of every segment.
type segmentObserver struct {
	topk.NopObserver
	onSegment func(term int)
}

func (o segmentObserver) SegmentScheduled(term int) { o.onSegment(term) }

// segment is where one segment of a list began, and whether UBStop had
// latched by then.
type segment struct {
	start   int
	latched bool
}

// traceSegments runs q at Threads 1 and returns, per term, the segments
// its list was traversed in.
func traceSegments(t *testing.T, view postings.View, q model.Query, opts topk.Options) [][]segment {
	t.Helper()
	var r *run
	read := make([]int, len(q))
	segs := make([][]segment, len(q))
	obs := segmentObserver{onSegment: func(i int) {
		segs[i] = append(segs[i], segment{read[i], r.ubStop.Load()})
	}}
	opts.Threads, opts.Observer = 1, obs
	opts = opts.WithDefaults()
	es := topk.NewExecState(context.Background(), obs)
	r = newRun(view, q, opts, Config{}, es)
	for i := range r.cursors {
		r.cursors[i] = countingCursor{r.cursors[i], &read[i]}
	}
	_, st, err := r.run()
	es.Finish(st, err)
	if err != nil {
		t.Fatal(err)
	}
	return segs
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
	segs := traceSegments(t, x, model.Query{term}, topk.Options{K: 2000, Exact: true})
	var starts []int
	for _, s := range segs[0] {
		starts = append(starts, s.start)
	}
	if want := []int{0, 64, 192, 448, 960}; !slices.Equal(starts, want) {
		t.Errorf("segments began at postings %v, want %v", starts, want)
	}
}

// TestSpartaSegmentsAfterUBStopAreWhole checks both halves of the
// schedule on the ram_long pool: before UBStop the j-th segment of a
// list is min(64·2^j, SegSize) postings, after it every segment is
// SegSize. A list's last segment is cut short by its end or by the stop
// and is not measured.
func TestSpartaSegmentsAfterUBStopAreWhole(t *testing.T) {
	view, pool := ramLongStack(t)
	for _, seg := range []int{256, 1024} {
		whole := 0
		for qi, q := range pool[:20] {
			for i, list := range traceSegments(t, view, q, topk.Options{K: 10, Exact: true, SegSize: seg}) {
				for j := 0; j+1 < len(list); j++ {
					got := list[j+1].start - list[j].start
					want := min(postings.BlockSize<<j, seg)
					if list[j].latched {
						want = seg
						whole++
					}
					if got != want {
						t.Fatalf("SegSize %d query %d term %d segment %d (UBStop %v): %d postings, want %d", seg, qi, i, j, list[j].latched, got, want)
					}
				}
			}
		}
		if whole == 0 {
			t.Errorf("SegSize %d: no whole segment after UBStop in 20 queries", seg)
		}
	}
}

// TestSpartaWorkAtThreads1 gates work, not time: at Threads 1 the job
// order is deterministic, so these sums over the ram_long pool repeat
// exactly. A change that moves one changed what Sparta does — if it
// was meant to, update the row in the same diff.
func TestSpartaWorkAtThreads1(t *testing.T) {
	view, pool := ramLongStack(t)
	s := New(view)
	for _, want := range []struct {
		seg                                        int
		postings, cleanings, peak, inserts, random int64
	}{
		{64, 3_411_066, 12_520, 114_794, 5_390, 1_636},
		{256, 3_417_454, 3_127, 128_207, 5_399, 1_600},
		{1024, 3_561_134, 834, 128_207, 5_400, 1_455}, // DefaultSegSize
	} {
		var got struct{ postings, cleanings, peak, inserts, random int64 }
		for _, q := range pool {
			_, st, err := s.Search(q, topk.Options{K: 10, Exact: true, Threads: 1, SegSize: want.seg})
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
			t.Errorf("SegSize %d over %d queries: postings %d, cleanings %d, candidate peak %d, heap inserts %d, random accesses %d;\nwant %d, %d, %d, %d, %d",
				want.seg, len(pool), got.postings, got.cleanings, got.peak, got.inserts, got.random,
				want.postings, want.cleanings, want.peak, want.inserts, want.random)
		}
	}
}
