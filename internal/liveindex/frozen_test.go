package liveindex

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"sparta/internal/codec"
	"sparta/internal/corpus"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/scoring"
)

// TestFrozenRoundTripsNonMonotoneTF flushes a memtable whose impact
// order is not ordered by the stored payload — term 0 occurs once in
// one-word documents (weight 1) and three times in long ones (weight
// about 0.1), so by weight the term frequencies read 1, 1, …, 3, 3 —
// and drives the one segment view twice, under a later epoch's
// statistics: over the memtable snapshot and over the segment written
// from it. The two must serve the same postings, scores and bounds,
// whole lists and shard-filtered ones alike. A store that recomputed
// block bounds from the payload, or coded the impact region as
// non-increasing scores, cannot.
func TestFrozenRoundTripsNonMonotoneTF(t *testing.T) {
	const lo, docs, nTerms, shards = 1000, 300, 3, 12
	m := newMemtable(lo)
	for i := 0; i < docs; i++ {
		bag := []corpus.TermCount{{Term: 0, Count: 1}}
		if i%2 == 1 {
			bag = []corpus.TermCount{{Term: 0, Count: 3}, {Term: 1, Count: uint32(300 + i)}}
		}
		m.appendDoc(lo+model.DocID(i), bag)
	}
	seg := m.snapshot(nTerms, 1) // term 2 has no postings
	rises := false
	imp := seg.term(0).impact
	for i := 1; i < len(imp); i++ {
		rises = rises || imp[i].Score > imp[i-1].Score
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
	mem := &segView{seg: &seg.segment, src: seg, n: n, df: df}
	frozen := &segView{seg: &fz.segment, src: fz.inner, n: n, df: df}
	for tid := 0; tid < nTerms; tid++ {
		term := model.TermID(tid)
		if frozen.DF(term) != mem.DF(term) || frozen.MaxScore(term) != mem.MaxScore(term) {
			t.Fatalf("term %d: df %d, max %d; memtable df %d, max %d",
				tid, frozen.DF(term), frozen.MaxScore(term), mem.DF(term), mem.MaxScore(term))
		}
		fd, md := frozen.DocCursor(term), mem.DocCursor(term)
		if fd.Len() != md.Len() || fd.MaxScore() != md.MaxScore() {
			t.Fatalf("term %d doc cursor: len %d, max %d; memtable len %d, max %d",
				tid, fd.Len(), fd.MaxScore(), md.Len(), md.MaxScore())
		}
		for i := 0; md.Next(); i++ {
			if !fd.Next() || fd.Doc() != md.Doc() || fd.Score() != md.Score() {
				t.Fatalf("term %d doc order, posting %d: frozen (%d,%d), memtable (%d,%d)",
					tid, i, fd.Doc(), fd.Score(), md.Doc(), md.Score())
			}
			if fd.BlockLast() != md.BlockLast() || fd.BlockMax() != md.BlockMax() || fd.BlockMax() < fd.Score() {
				t.Fatalf("term %d posting %d: block (last %d, max %d), memtable (last %d, max %d), score %d",
					tid, i, fd.BlockLast(), fd.BlockMax(), md.BlockLast(), md.BlockMax(), fd.Score())
			}
			if fd.BlockMaxAt(md.Doc()+1) != md.BlockMaxAt(md.Doc()+1) || fd.BlockLastAt(md.Doc()+1) != md.BlockLastAt(md.Doc()+1) {
				t.Fatalf("term %d: block after doc %d differs", tid, md.Doc())
			}
			for _, v := range []*segView{frozen, mem} {
				if s, ok := v.RandomAccess(term, md.Doc()); !ok || s != md.Score() {
					t.Fatalf("term %d: %s RandomAccess(%d) = %d,%v, cursor scores %d", tid, v.seg.kind, md.Doc(), s, ok, md.Score())
				}
			}
		}
		if fd.Next() {
			t.Fatalf("term %d: frozen doc cursor runs past the memtable's", tid)
		}
		sameScoreOrder(t, fmt.Sprintf("term %d", tid), frozen.ScoreCursor(term), mem.ScoreCursor(term))
		covered := 0
		for sh := 0; sh < shards; sh++ {
			fs, ms := frozen.ScoreCursorShard(term, sh, shards), mem.ScoreCursorShard(term, sh, shards)
			covered += sameScoreOrder(t, fmt.Sprintf("term %d shard %d/%d", tid, sh, shards), fs, ms)
		}
		if covered != mem.DF(term) {
			t.Fatalf("term %d: %d shards yield %d postings of %d", tid, shards, covered, mem.DF(term))
		}
	}
}

// sameScoreOrder requires two score cursors to yield the same postings,
// scores and bounds, and returns how many they yielded.
func sameScoreOrder(t *testing.T, label string, fs, ms postings.ScoreCursor) int {
	t.Helper()
	if fs.Bound() != ms.Bound() {
		t.Fatalf("%s: frozen bound %d before the first posting, memtable %d", label, fs.Bound(), ms.Bound())
	}
	i := 0
	for ; ms.Next(); i++ {
		if !fs.Next() || fs.Doc() != ms.Doc() || fs.Score() != ms.Score() || fs.Bound() != ms.Bound() {
			t.Fatalf("%s impact order, posting %d: frozen (%d,%d) bound %d, memtable (%d,%d) bound %d",
				label, i, fs.Doc(), fs.Score(), fs.Bound(), ms.Doc(), ms.Score(), ms.Bound())
		}
	}
	if fs.Next() || fs.Bound() != ms.Bound() {
		t.Fatalf("%s: the frozen cursor runs past the memtable's %d postings", label, i)
	}
	return i
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
			snaps = append(snaps, m.snapshot(nTerms, 1))
		}
	}
	for _, got := range snaps {
		ref := newMemtable(lo)
		for i := 0; i < got.docs(); i++ {
			ref.appendDoc(lo+model.DocID(i), bagOf(i))
		}
		want := ref.snapshot(nTerms, 1)
		for tid := model.TermID(0); tid < nTerms; tid++ {
			g, w := got.term(tid), want.term(tid)
			if !slices.Equal(g.post, w.post) || !slices.Equal(g.impact, w.impact) ||
				!slices.Equal(g.blocks, w.blocks) || g.max != w.max {
				t.Fatalf("snapshot of %d docs, term %d: differs from a memtable built in one go", got.docs(), tid)
			}
		}
	}
}

// TestFrozenWeightTablesMatchRawWeight pins a segment's table scoring
// to scoring.TermScore bit for bit: the weight from the per-document
// √|D| table equals LogTF/SqrtLen, and its score under an idf equals
// the builder's. tf 1–300 crosses the end of the 1 + ln tf table, and
// the document lengths include 0, which both clamp to 1.
func TestFrozenWeightTablesMatchRawWeight(t *testing.T) {
	const lo, numDocs = 500, 100_000
	var lens []uint32
	for n := uint32(0); n < 70; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 255, 256, 1000, 4095, 1<<20)
	seg := &segment{lo: lo, docLens: lens, sqrtLen: sqrtLens(lens)}
	sc := scoring.New(numDocs)
	for tf := uint32(1); tf <= 300; tf++ {
		for i, n := range lens {
			d := lo + model.DocID(i)
			got, want := seg.weight(tf, d), scoring.LogTF(tf)/scoring.SqrtLen(int(n))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tf %d, docLen %d: table weight %v, raw weight %v", tf, n, got, want)
			}
			for _, df := range []int{0, 1, 7, 5000, numDocs} {
				if got, want := scoring.Score(got, scoring.IDF(numDocs, df)), sc.TermScore(tf, int(n), df); got != want {
					t.Fatalf("tf %d, docLen %d, df %d: live score %d, builder's %d", tf, n, df, got, want)
				}
			}
		}
	}
}

// TestMemtableBytesCountsItsLists requires MemtableBytes, after appends
// that cross block boundaries, to equal what the published snapshot
// holds: both posting orders, the block metadata and the per-document
// tables.
func TestMemtableBytesCountsItsLists(t *testing.T) {
	io := iomodel.RAMConfig()
	l, err := Open(t.TempDir(), Config{IO: &io, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const docs = 2*postings.BlockSize + 9
	for i := range docs {
		bag := []corpus.TermCount{{Term: 0, Count: uint32(1 + i%3)}} // three blocks
		if i%3 == 0 {
			bag = append(bag, corpus.TermCount{Term: 2, Count: 4}) // one block
		}
		if _, err := l.AppendBag(bag); err != nil {
			t.Fatal(err)
		}
	}
	views := l.epochNow().views
	seg := views[len(views)-1].src.(*memSegment)
	want := int64(len(seg.docLens))*int64(unsafe.Sizeof(seg.docLens[0])) +
		int64(len(seg.sqrtLen))*int64(unsafe.Sizeof(seg.sqrtLen[0]))
	blocks := 0
	for t := range seg.terms {
		mt := seg.term(model.TermID(t))
		want += int64(len(mt.post)+len(mt.impact))*int64(unsafe.Sizeof(model.Posting{})) +
			int64(len(mt.blocks))*int64(unsafe.Sizeof(postings.BlockMeta{}))
		blocks += len(mt.blocks)
	}
	if seg.docs() != docs || blocks != 4 {
		t.Fatalf("snapshot holds %d documents in %d blocks, want %d in 4", seg.docs(), blocks, docs)
	}
	if got := l.MemtableBytes(); got != want {
		t.Fatalf("MemtableBytes %d, the snapshot's lists hold %d", got, want)
	}
	if st := l.SegmentStats(); st[len(st)-1].Bytes != want {
		t.Fatalf("memtable SegmentStats.Bytes %d, the snapshot's lists hold %d", st[len(st)-1].Bytes, want)
	}
}
