package index

import (
	"testing"

	"sparta/internal/corpus"
	"sparta/internal/model"
)

func buildTextIndex(t *testing.T) *Index {
	t.Helper()
	b := NewBuilder()
	b.Add("go concurrency patterns for search engines")
	b.Add("search engines rank documents by score")
	b.Add("concurrency bugs in distributed search")
	b.Add("the gopher ranks burrows by depth depth depth")
	return b.Build()
}

func TestBuildFromText(t *testing.T) {
	x := buildTextIndex(t)
	if x.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d, want 4", x.NumDocs())
	}
	tid, ok := x.Lookup("search")
	if !ok {
		t.Fatal("term 'search' missing")
	}
	if df := x.DF(tid); df != 3 {
		t.Errorf("df(search) = %d, want 3", df)
	}
	if _, ok := x.Lookup("the"); ok {
		t.Error("stopword 'the' should not be indexed")
	}
}

func TestPostingsDocOrdered(t *testing.T) {
	x := buildTextIndex(t)
	for tid := 0; tid < x.NumTerms(); tid++ {
		list := x.Postings(model.TermID(tid))
		for i := 1; i < len(list); i++ {
			if list[i].Doc <= list[i-1].Doc {
				t.Fatalf("term %d postings not doc-ordered", tid)
			}
		}
		for _, p := range list {
			if p.Score <= 0 {
				t.Fatalf("term %d has non-positive score posting", tid)
			}
		}
	}
}

func TestImpactScoreOrdered(t *testing.T) {
	x := buildTextIndex(t)
	for tid := 0; tid < x.NumTerms(); tid++ {
		list := x.Impact(model.TermID(tid))
		if len(list) != x.DF(model.TermID(tid)) {
			t.Fatalf("term %d impact length mismatch", tid)
		}
		for i := 1; i < len(list); i++ {
			if list[i].Score > list[i-1].Score {
				t.Fatalf("term %d impact list not score-ordered", tid)
			}
		}
		if len(list) > 0 && list[0].Score != x.MaxScore(model.TermID(tid)) {
			t.Fatalf("term %d MaxScore %d != first impact %d",
				tid, x.MaxScore(model.TermID(tid)), list[0].Score)
		}
	}
}

func TestTFBoostsScore(t *testing.T) {
	x := buildTextIndex(t)
	tid, _ := x.Lookup("depth") // tf=3 in doc 3
	list := x.Postings(tid)
	if len(list) != 1 {
		t.Fatalf("df(depth) = %d, want 1", len(list))
	}
	// Compare against a tf=1 term in the same document.
	gid, _ := x.Lookup("gopher")
	glist := x.Postings(gid)
	if list[0].Score <= glist[0].Score {
		t.Errorf("tf=3 score %d not > tf=1 score %d in same doc", list[0].Score, glist[0].Score)
	}
}

func TestRandomAccess(t *testing.T) {
	x := buildTextIndex(t)
	tid, _ := x.Lookup("search")
	for _, p := range x.Postings(tid) {
		s, ok := x.RandomAccess(tid, p.Doc)
		if !ok || s != p.Score {
			t.Errorf("RandomAccess(%d) = %d,%v, want %d", p.Doc, s, ok, p.Score)
		}
	}
	if _, ok := x.RandomAccess(tid, 3); ok {
		t.Error("RandomAccess for absent doc returned ok")
	}
}

func TestCursorsAgreeWithSlices(t *testing.T) {
	x := buildTextIndex(t)
	tid, _ := x.Lookup("search")
	dc := x.DocCursor(tid)
	i := 0
	for dc.Next() {
		p := x.Postings(tid)[i]
		if dc.Doc() != p.Doc || dc.Score() != p.Score {
			t.Fatalf("doc cursor diverges at %d", i)
		}
		i++
	}
	sc := x.ScoreCursor(tid)
	i = 0
	for sc.Next() {
		p := x.Impact(tid)[i]
		if sc.Doc() != p.Doc || sc.Score() != p.Score {
			t.Fatalf("score cursor diverges at %d", i)
		}
		i++
	}
}

func corpusIndex(t *testing.T, docs int) *Index {
	t.Helper()
	c := corpus.New(corpus.Spec{
		Name: "t", Docs: docs, Vocab: 300, ZipfS: 1.0,
		MeanDocLen: 30, MinDocLen: 4, Seed: 99,
	})
	return FromCorpus(c)
}

func TestFromCorpus(t *testing.T) {
	x := corpusIndex(t, 400)
	if x.NumDocs() != 400 {
		t.Fatalf("NumDocs = %d", x.NumDocs())
	}
	var total int64
	for tid := 0; tid < x.NumTerms(); tid++ {
		total += int64(x.DF(model.TermID(tid)))
	}
	if total != x.TotalPostings() || total == 0 {
		t.Errorf("TotalPostings = %d, sum of df = %d", x.TotalPostings(), total)
	}
}

// TestShardCursorsPartitionImpactList checks the score cursors sNRA
// reads: those of Partition's parts split each impact list.
func TestShardCursorsPartitionImpactList(t *testing.T) {
	x := corpusIndex(t, 400)
	const shards = 4
	parts := x.Partition(shards)
	for tid := 0; tid < x.NumTerms(); tid += 13 {
		term := model.TermID(tid)
		seen := make(map[model.DocID]model.Score)
		n := 0
		for s := 0; s < shards; s++ {
			c := parts[s].ScoreCursor(term)
			prev := model.Score(1 << 60)
			for c.Next() {
				if c.Score() > prev {
					t.Fatalf("term %d shard %d not score-ordered", tid, s)
				}
				prev = c.Score()
				if _, dup := seen[c.Doc()]; dup {
					t.Fatalf("term %d doc %d appears in two shards", tid, c.Doc())
				}
				seen[c.Doc()] = c.Score()
				n++
			}
		}
		if n != x.DF(term) {
			t.Fatalf("term %d shards yield %d postings, df=%d", tid, n, x.DF(term))
		}
		for _, p := range x.Impact(term) {
			if seen[p.Doc] != p.Score {
				t.Fatalf("term %d doc %d score mismatch across shards", tid, p.Doc)
			}
		}
	}
}

func TestShardCursorSingleShardIsFullList(t *testing.T) {
	x := corpusIndex(t, 100)
	c := x.Partition(1)[0].ScoreCursor(0)
	if c.Len() != x.DF(0) {
		t.Errorf("1-shard cursor len %d != df %d", c.Len(), x.DF(0))
	}
}

func TestBlocksConsistent(t *testing.T) {
	x := corpusIndex(t, 400)
	for tid := 0; tid < x.NumTerms(); tid += 7 {
		term := model.TermID(tid)
		list := x.Postings(term)
		blocks := x.Blocks(term)
		if len(list) == 0 {
			continue
		}
		wantBlocks := (len(list) + 63) / 64
		if len(blocks) != wantBlocks {
			t.Fatalf("term %d: %d blocks, want %d", tid, len(blocks), wantBlocks)
		}
		if blocks[len(blocks)-1].Last != list[len(list)-1].Doc {
			t.Fatalf("term %d: last block Last mismatch", tid)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	a := corpusIndex(t, 200)
	b := corpusIndex(t, 200)
	if a.NumTerms() != b.NumTerms() || a.TotalPostings() != b.TotalPostings() {
		t.Fatal("same corpus built different indexes")
	}
	for tid := 0; tid < a.NumTerms(); tid += 11 {
		la, lb := a.Postings(model.TermID(tid)), b.Postings(model.TermID(tid))
		if len(la) != len(lb) {
			t.Fatalf("term %d df differs", tid)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("term %d posting %d differs", tid, i)
			}
		}
	}
}
