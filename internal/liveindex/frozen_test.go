package liveindex

import (
	"math"
	"slices"
	"testing"

	"sparta/internal/codec"
	"sparta/internal/corpus"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
)

// TestFrozenRoundTripsNonMonotoneTF flushes a memtable whose impact
// order is not ordered by the stored payload — term 0 occurs once in
// one-word documents (weight 1) and three times in long ones (weight
// about 0.1), so by weight the term frequencies read 1, 1, …, 3, 3 —
// and requires the frozen segment to serve, posting for posting and
// under a later epoch's statistics, exactly what the memtable served.
// A store that recomputed block bounds from the payload, or coded the
// impact region as non-increasing scores, cannot.
func TestFrozenRoundTripsNonMonotoneTF(t *testing.T) {
	const lo, docs, nTerms = 1000, 300, 3
	m := newMemtable(lo)
	for i := 0; i < docs; i++ {
		bag := []corpus.TermCount{{Term: 0, Count: 1}}
		if i%2 == 1 {
			bag = []corpus.TermCount{{Term: 0, Count: 3}, {Term: 1, Count: uint32(300 + i)}}
		}
		m.appendDoc(lo+model.DocID(i), bag)
	}
	seg := m.snapshot(nTerms) // term 2 has no postings
	rises := false
	imp := seg.term(0).impact
	for i := 1; i < len(imp); i++ {
		rises = rises || imp[i].tf > imp[i-1].tf
	}
	if !rises {
		t.Fatal("the fixture's term frequencies are monotone in impact order; it tests nothing")
	}

	dir := t.TempDir()
	if err := writeFrozen(dir, seg); err != nil {
		t.Fatal(err)
	}
	fz, err := openFrozen(dir, 1, seg.lo, seg.hi, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fz.inner.Codec() != codec.Raw {
		t.Fatalf("segment written with codec %v, want %v", fz.inner.Codec(), codec.Raw)
	}

	// An epoch in which the corpus has grown past the segment.
	n, df := int(seg.hi)+5000, []int32{docs + 700, docs/2 + 40, 0}
	mem := &memView{seg: seg, n: n, df: df, gen: 1}
	frozen := newFrozenView(fz, n, df)
	for tid := 0; tid < nTerms; tid++ {
		term := model.TermID(tid)
		if frozen.DF(term) != mem.DF(term) {
			t.Fatalf("term %d: df %d, memtable %d", tid, frozen.DF(term), mem.DF(term))
		}
		// Stored bounds are quantized upward: never below the memtable's.
		if frozen.MaxScore(term) < mem.MaxScore(term) {
			t.Errorf("term %d: max %d below the memtable's %d", tid, frozen.MaxScore(term), mem.MaxScore(term))
		}
		fd, md := frozen.DocCursor(term), mem.DocCursor(term)
		for i := 0; md.Next(); i++ {
			if !fd.Next() || fd.Doc() != md.Doc() || fd.Score() != md.Score() {
				t.Fatalf("term %d doc order, posting %d: frozen (%d,%d), memtable (%d,%d)",
					tid, i, fd.Doc(), fd.Score(), md.Doc(), md.Score())
			}
			if fd.BlockLast() != md.BlockLast() || fd.BlockMax() < md.BlockMax() || fd.BlockMax() < fd.Score() {
				t.Fatalf("term %d posting %d: block (last %d, max %d), memtable (last %d, max %d), score %d",
					tid, i, fd.BlockLast(), fd.BlockMax(), md.BlockLast(), md.BlockMax(), fd.Score())
			}
			if s, ok := frozen.RandomAccess(term, md.Doc()); !ok || s != md.Score() {
				t.Fatalf("term %d: RandomAccess(%d) = %d,%v, memtable scores %d", tid, md.Doc(), s, ok, md.Score())
			}
		}
		if fd.Next() {
			t.Fatalf("term %d: frozen doc cursor runs past the memtable's", tid)
		}
		var fs, ms postings.ScoreCursor = frozen.ScoreCursor(term), mem.ScoreCursor(term)
		for i := 0; ms.Next(); i++ {
			if !fs.Next() || fs.Doc() != ms.Doc() || fs.Score() != ms.Score() || fs.Bound() != ms.Bound() {
				t.Fatalf("term %d impact order, posting %d: frozen (%d,%d), memtable (%d,%d)",
					tid, i, fs.Doc(), fs.Score(), ms.Doc(), ms.Score())
			}
		}
		if fs.Next() {
			t.Fatalf("term %d: frozen score cursor runs past the memtable's", tid)
		}
	}
}

// TestSnapshotsExtendWithoutDisturbingEarlierOnes takes a snapshot after
// every one to three appended documents, keeps them all, and requires
// each to equal — list for list, block for block — the single snapshot
// of a fresh memtable fed the same documents: a term's published form is
// extended from the one before it and shared by the snapshots between
// its changes, and neither may show.
func TestSnapshotsExtendWithoutDisturbingEarlierOnes(t *testing.T) {
	const lo, docs, nTerms = 40, 3*postings.BlockSize + 7, 6
	bagOf := func(i int) []corpus.TermCount {
		bag := []corpus.TermCount{{Term: 0, Count: uint32(1 + i*7%5)}} // every document; weights repeat
		if i%3 == 0 {
			bag = append(bag, corpus.TermCount{Term: 2, Count: uint32(1 + i%4)})
		}
		if i%50 == 49 {
			bag = append(bag, corpus.TermCount{Term: 4, Count: 9}) // term 5 never occurs
		}
		return bag
	}
	m := newMemtable(lo)
	var snaps []*memSegment
	for i := 0; i < docs; i++ {
		m.appendDoc(lo+model.DocID(i), bagOf(i))
		if i%4 != 1 { // some snapshots cover two documents
			snaps = append(snaps, m.snapshot(nTerms))
		}
	}
	for _, got := range snaps {
		ref := newMemtable(lo)
		for i := 0; i < got.docs(); i++ {
			ref.appendDoc(lo+model.DocID(i), bagOf(i))
		}
		want := ref.snapshot(nTerms)
		for tid := model.TermID(0); tid < nTerms; tid++ {
			g, w := got.term(tid), want.term(tid)
			if !slices.Equal(g.post, w.post) || !slices.Equal(g.impact, w.impact) ||
				!slices.Equal(g.blocks, w.blocks) || g.wmax != w.wmax {
				t.Fatalf("snapshot of %d docs, term %d: differs from a memtable built in one go", got.docs(), tid)
			}
		}
	}
}

// TestFrozenWeightTablesMatchRawWeight pins the frozen segment's table
// scoring to rawWeight bit for bit: tf 1–300 crosses the end of the
// 1 + ln tf table, and the document lengths include 0, which both clamp
// to 1.
func TestFrozenWeightTablesMatchRawWeight(t *testing.T) {
	const lo = 500
	var lens []uint32
	for n := uint32(0); n < 70; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 255, 256, 1000, 4095, 1<<20)
	seg := &frozenSeg{lo: lo, docLens: lens, sqrtLen: sqrtLens(lens)}
	for tf := uint32(1); tf <= 300; tf++ {
		for i, n := range lens {
			d := lo + model.DocID(i)
			got, want := seg.weight(tf, d), rawWeight(tf, int(n))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tf %d, docLen %d: table weight %v, rawWeight %v", tf, n, got, want)
			}
		}
	}
}
