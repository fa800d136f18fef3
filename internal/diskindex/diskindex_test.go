package diskindex

import (
	"path/filepath"
	"testing"

	"sparta/internal/codec"
	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
)

func testCorpusIndex(t *testing.T, docs int) *index.Index {
	t.Helper()
	c := corpus.New(corpus.Spec{
		Name: "t", Docs: docs, Vocab: 250, ZipfS: 1.0,
		MeanDocLen: 30, MinDocLen: 4, Seed: 7,
	})
	return index.FromCorpus(c)
}

func testCfg() iomodel.Config {
	cfg := iomodel.DefaultConfig()
	cfg.NoSleep = true
	return cfg
}

func TestRoundTripThroughMemory(t *testing.T) {
	mem := testCorpusIndex(t, 300)
	disk, err := FromIndex(mem, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	verifyEquivalent(t, mem, disk)
}

func TestRoundTripThroughFiles(t *testing.T) {
	mem := testCorpusIndex(t, 200)
	dir := filepath.Join(t.TempDir(), "idx")
	if err := WriteDir(mem, dir); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDir(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	verifyEquivalent(t, mem, disk)
}

func verifyEquivalent(t *testing.T, mem *index.Index, disk *Index) {
	t.Helper()
	if disk.NumDocs() != mem.NumDocs() || disk.NumTerms() != mem.NumTerms() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			disk.NumDocs(), disk.NumTerms(), mem.NumDocs(), mem.NumTerms())
	}
	for tid := 0; tid < mem.NumTerms(); tid++ {
		term := model.TermID(tid)
		if disk.DF(term) != mem.DF(term) {
			t.Fatalf("term %d df differs", tid)
		}
		if disk.MaxScore(term) != mem.MaxScore(term) {
			t.Fatalf("term %d max differs", tid)
		}
		// Doc-order traversal matches.
		dc, mc := disk.DocCursor(term), mem.DocCursor(term)
		for mc.Next() {
			if !dc.Next() {
				t.Fatalf("term %d disk doc cursor short", tid)
			}
			if dc.Doc() != mc.Doc() || dc.Score() != mc.Score() {
				t.Fatalf("term %d doc cursor mismatch: (%d,%d) vs (%d,%d)",
					tid, dc.Doc(), dc.Score(), mc.Doc(), mc.Score())
			}
			if dc.BlockMax() != mc.BlockMax() || dc.BlockLast() != mc.BlockLast() {
				t.Fatalf("term %d block metadata mismatch", tid)
			}
		}
		if dc.Next() {
			t.Fatalf("term %d disk doc cursor long", tid)
		}
		// Score-order traversal matches.
		ds, ms := disk.ScoreCursor(term), mem.ScoreCursor(term)
		for ms.Next() {
			if !ds.Next() {
				t.Fatalf("term %d disk score cursor short", tid)
			}
			if ds.Doc() != ms.Doc() || ds.Score() != ms.Score() {
				t.Fatalf("term %d score cursor mismatch", tid)
			}
		}
	}
}

// TestShardCursors builds the parts of one partition set (sNRA's form)
// onto one store: each reads what its in-memory part holds, inside its
// own document range, and all of them charge the one store.
func TestShardCursors(t *testing.T) {
	mem := testCorpusIndex(t, 300)
	const shards = 4
	store := iomodel.NewStore(testCfg())
	for s, part := range mem.Partition(shards) {
		disk, err := FromIndexOn(part, store, codec.Group)
		if err != nil {
			t.Fatal(err)
		}
		if disk.Store() != store {
			t.Fatalf("part %d reads its own store", s)
		}
		verifyEquivalent(t, part, disk)
		lo, hi := postings.ShardRange(mem.NumDocs(), s, shards)
		for tid := 0; tid < mem.NumTerms(); tid += 9 {
			for c := disk.ScoreCursor(model.TermID(tid)); c.Next(); {
				if c.Doc() < lo || c.Doc() >= hi {
					t.Fatalf("term %d part %d holds doc %d outside [%d,%d)", tid, s, c.Doc(), lo, hi)
				}
			}
		}
	}
	if io := store.Snapshot(); io.BlocksRead == 0 {
		t.Error("the parts' reads charged nothing to their store")
	}
}

func TestRandomAccessMatches(t *testing.T) {
	mem := testCorpusIndex(t, 300)
	disk, err := FromIndex(mem, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < mem.NumTerms(); tid += 17 {
		term := model.TermID(tid)
		for _, p := range mem.Postings(term) {
			s, ok := disk.RandomAccess(term, p.Doc)
			if !ok || s != p.Score {
				t.Fatalf("term %d RandomAccess(%d) = %d,%v want %d", tid, p.Doc, s, ok, p.Score)
			}
		}
		// An absent doc misses.
		if _, ok := disk.RandomAccess(term, model.DocID(mem.NumDocs()+5)); ok {
			t.Fatalf("term %d RandomAccess hit for absent doc", tid)
		}
	}
}

func TestIOCharged(t *testing.T) {
	mem := testCorpusIndex(t, 300)
	disk, err := FromIndex(mem, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	disk.Store().Flush()
	disk.Store().ResetStats()
	c := disk.ScoreCursor(0)
	for c.Next() {
	}
	st := disk.Store().Snapshot()
	if st.BlocksRead == 0 {
		t.Error("sequential scan charged no block reads")
	}
	if st.RandReads > st.SeqReads+1 {
		t.Errorf("sequential scan classified as random: seq=%d rand=%d", st.SeqReads, st.RandReads)
	}
}

func TestRandomAccessChargedAsRandom(t *testing.T) {
	mem := testCorpusIndex(t, 2000)
	cfg := testCfg()
	cfg.BlockSize = 512 // small blocks so the binary search spans many
	disk, err := FromIndex(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the most common term: longest posting list.
	disk.Store().Flush()
	disk.Store().ResetStats()
	for d := 0; d < 50; d++ {
		disk.RandomAccess(0, model.DocID(d*37))
	}
	st := disk.Store().Snapshot()
	if st.RandReads == 0 {
		t.Error("binary searches charged no random reads")
	}
}

func TestSkipToOnDisk(t *testing.T) {
	mem := testCorpusIndex(t, 500)
	disk, err := FromIndex(mem, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	term := model.TermID(0)
	memList := mem.Postings(term)
	c := disk.DocCursor(term)
	// Skip through every fourth posting.
	for i := 0; i < len(memList); i += 4 {
		want := memList[i]
		if !c.SkipTo(want.Doc) {
			t.Fatalf("SkipTo(%d) failed at i=%d", want.Doc, i)
		}
		if c.Doc() != want.Doc || c.Score() != want.Score {
			t.Fatalf("SkipTo(%d) landed on (%d,%d)", want.Doc, c.Doc(), c.Score())
		}
	}
	if c.SkipTo(model.DocID(mem.NumDocs() + 1)) {
		t.Error("SkipTo past end should fail")
	}
}

func TestManifest(t *testing.T) {
	mem := testCorpusIndex(t, 100)
	disk, err := FromIndex(mem, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	m := disk.Manifest()
	if m.NumDocs != 100 || m.Version != FormatVersion {
		t.Errorf("manifest = %+v", m)
	}
	if m.TotalPostings != mem.TotalPostings() {
		t.Errorf("TotalPostings = %d, want %d", m.TotalPostings, mem.TotalPostings())
	}
}

func TestOpenDirMissingFile(t *testing.T) {
	if _, err := OpenDir(t.TempDir(), testCfg()); err == nil {
		t.Error("OpenDir on empty dir should error")
	}
}

// TestReopenChargesIndependently: every Reopen is the same index over
// the same bytes — nothing is copied or rebuilt — behind a store of its
// own, so a replica's reads are charged to that replica alone.
func TestReopenChargesIndependently(t *testing.T) {
	mem := testCorpusIndex(t, 300)
	first, err := FromIndex(mem, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	reps := []*Index{first, first.Reopen(testCfg()), first.Reopen(testCfg())}
	for i, r := range reps {
		verifyEquivalent(t, mem, r)
		if i > 0 && &r.Store().RawBytesOf(r.postFile)[0] != &first.Store().RawBytesOf(first.postFile)[0] {
			t.Errorf("replica %d copied the posting bytes", i)
		}
		if i > 0 && (r.directory != first.directory || r.Store() == first.Store() || r.PostingCache() != nil) {
			t.Errorf("replica %d: shared directory %v, own store %v, cache %v",
				i, r.directory == first.directory, r.Store() != first.Store(), r.PostingCache())
		}
	}
	for _, r := range reps {
		r.Store().Flush()
		r.Store().ResetStats()
	}
	for c := reps[1].ScoreCursor(0); c.Next(); {
	}
	for i, r := range reps {
		st := r.Store().Snapshot()
		if (st.BlocksRead > 0) != (i == 1) || r.Store().Unsettled() != 0 {
			t.Errorf("replica %d: %d blocks read, %v unsettled after a scan of replica 1 only",
				i, st.BlocksRead, r.Store().Unsettled())
		}
	}
}

// TestRandomAccessCostIsCodecIndependent: a lookup is one directory
// search and at most one charged block read on either codec, so the RA
// family's I/O bill does not depend on how the index was built.
func TestRandomAccessCostIsCodecIndependent(t *testing.T) {
	mem := testCorpusIndex(t, 2000)
	raw, err := FromIndexWith(mem, testCfg(), codec.Raw)
	if err != nil {
		t.Fatal(err)
	}
	group, err := FromIndexWith(mem, testCfg(), codec.Group)
	if err != nil {
		t.Fatal(err)
	}
	views := func(x *Index, term model.TermID, d model.DocID) (int64, model.Score, bool) {
		x.Store().ResetStats()
		s, ok := x.RandomAccess(term, d)
		return x.Store().Snapshot().ViewCalls, s, ok
	}
	for tid := 0; tid < mem.NumTerms(); tid += 11 {
		term := model.TermID(tid)
		for d := 0; d <= mem.NumDocs(); d += 13 {
			want, wantOK := mem.RandomAccess(term, model.DocID(d))
			rv, rs, rok := views(raw, term, model.DocID(d))
			gv, gs, gok := views(group, term, model.DocID(d))
			if rs != want || rok != wantOK || gs != want || gok != wantOK {
				t.Fatalf("term %d doc %d: raw (%d,%v) group (%d,%v) want (%d,%v)", tid, d, rs, rok, gs, gok, want, wantOK)
			}
			if rv != gv || rv > 1 {
				t.Fatalf("term %d doc %d: %d charged views on raw, %d on group; want the same, at most 1", tid, d, rv, gv)
			}
		}
	}
	// The reader and the decoded block live on the caller's stack.
	for _, x := range []*Index{raw, group} {
		if a := testing.AllocsPerRun(100, func() { x.RandomAccess(0, 777) }); a != 0 {
			t.Errorf("%v: %v allocations per lookup, want none", x.Codec(), a)
		}
	}
}
