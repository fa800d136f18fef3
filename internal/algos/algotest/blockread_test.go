package algotest_test

import (
	"fmt"
	"testing"

	"sparta/internal/algos/algotest"
	"sparta/internal/bench"
	"sparta/internal/cindex"
	"sparta/internal/codec"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/postings"
	"sparta/internal/topk"
	"sparta/internal/xrand"
)

// equivViews builds the three view implementations over one corpus: the
// in-memory index (the reference the block-decoded cursors must match),
// the uncompressed disk layout, and the compressed one.
func equivViews(t *testing.T, seed uint64) (*index.Index, *diskindex.Index, *cindex.Index) {
	t.Helper()
	x := algotest.MediumIndex(t, seed)
	disk, err := diskindex.FromIndex(x, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := cindex.FromIndex(x, 0, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	return x, disk, comp
}

// assertDocCursorsEqual drains want and got in lockstep via Next,
// comparing postings and block metadata at every position.
func assertDocCursorsEqual(t *testing.T, name string, want, got postings.DocCursor) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: Len %d != %d", name, got.Len(), want.Len())
	}
	if want.MaxScore() != got.MaxScore() {
		t.Fatalf("%s: MaxScore %d != %d", name, got.MaxScore(), want.MaxScore())
	}
	for i := 0; ; i++ {
		wOK, gOK := want.Next(), got.Next()
		if wOK != gOK {
			t.Fatalf("%s: pos %d: Next %v != %v", name, i, gOK, wOK)
		}
		if !wOK {
			return
		}
		if want.Doc() != got.Doc() || want.Score() != got.Score() {
			t.Fatalf("%s: pos %d: posting (%d,%d) != (%d,%d)",
				name, i, got.Doc(), got.Score(), want.Doc(), want.Score())
		}
		if want.BlockMax() != got.BlockMax() || want.BlockLast() != got.BlockLast() {
			t.Fatalf("%s: pos %d: block meta (%d,%d) != (%d,%d)",
				name, i, got.BlockMax(), got.BlockLast(), want.BlockMax(), want.BlockLast())
		}
	}
}

// assertSkipToEqual walks two fresh cursors with an identical random
// mix of Next and SkipTo (including same-block and cross-block jumps),
// comparing positions after every move.
func assertSkipToEqual(t *testing.T, name string, want, got postings.DocCursor, seed uint64) {
	t.Helper()
	rng := xrand.New(seed)
	for i := 0; ; i++ {
		var wOK, gOK bool
		if rng.Intn(3) == 0 {
			wOK, gOK = want.Next(), got.Next()
		} else {
			var tgt model.DocID
			if wOK = want.Next(); wOK {
				// A forward jump relative to the reference position.
				tgt = want.Doc() + model.DocID(rng.Intn(200))
				wOK = want.SkipTo(tgt)
			}
			if gOK = got.Next(); gOK {
				gOK = got.SkipTo(tgt)
			}
		}
		if wOK != gOK {
			t.Fatalf("%s: step %d: advance %v != %v", name, i, gOK, wOK)
		}
		if !wOK {
			return
		}
		if want.Doc() != got.Doc() || want.Score() != got.Score() {
			t.Fatalf("%s: step %d: posting (%d,%d) != (%d,%d)",
				name, i, got.Doc(), got.Score(), want.Doc(), want.Score())
		}
		if want.BlockMaxAt(want.Doc()+64) != got.BlockMaxAt(want.Doc()+64) {
			t.Fatalf("%s: step %d: BlockMaxAt mismatch", name, i)
		}
	}
}

// assertScoreCursorsEqual drains two score-order cursors in lockstep,
// comparing postings and bounds at every position.
func assertScoreCursorsEqual(t *testing.T, name string, want, got postings.ScoreCursor) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: Len %d != %d", name, got.Len(), want.Len())
	}
	if want.Bound() != got.Bound() {
		t.Fatalf("%s: initial Bound %d != %d", name, got.Bound(), want.Bound())
	}
	for i := 0; ; i++ {
		wOK, gOK := want.Next(), got.Next()
		if wOK != gOK {
			t.Fatalf("%s: pos %d: Next %v != %v", name, i, gOK, wOK)
		}
		if !wOK {
			return
		}
		if want.Doc() != got.Doc() || want.Score() != got.Score() || want.Bound() != got.Bound() {
			t.Fatalf("%s: pos %d: (%d,%d,b%d) != (%d,%d,b%d)", name, i,
				got.Doc(), got.Score(), got.Bound(), want.Doc(), want.Score(), want.Bound())
		}
	}
}

// TestBlockCursorsMatchReference compares every cursor kind of the
// block-decoded views — uncompressed and compressed, with and without
// the decoded-block cache, cold and warm — posting by posting against
// the in-memory reference cursors.
func TestBlockCursorsMatchReference(t *testing.T) {
	mem, disk, comp := equivViews(t, 4242)

	run := func(label string, v postings.View) {
		for term := 0; term < mem.NumTerms(); term += 3 {
			tid := model.TermID(term)
			name := fmt.Sprintf("%s/term%d", label, term)
			assertDocCursorsEqual(t, name+"/doc", mem.DocCursor(tid), v.DocCursor(tid))
			assertSkipToEqual(t, name+"/skip", mem.DocCursor(tid), v.DocCursor(tid), uint64(term)+7)
			assertScoreCursorsEqual(t, name+"/imp", mem.ScoreCursor(tid), v.ScoreCursor(tid))
			rng := xrand.New(uint64(term) * 31)
			for i := 0; i < 40; i++ {
				d := model.DocID(rng.Intn(mem.NumDocs() + 10))
				ws, wok := mem.RandomAccess(tid, d)
				gs, gok := v.RandomAccess(tid, d)
				if ws != gs || wok != gok {
					t.Fatalf("%s: RandomAccess(%d) = (%d,%v), want (%d,%v)", name, d, gs, gok, ws, wok)
				}
			}
		}
	}

	run("disk", disk)
	run("cindex", comp)

	// Attach caches and compare again twice: the first pass populates
	// (miss path), the second serves from the cache (hit path) — both
	// must be indistinguishable from the reference.
	diskCache := plcache.NewWithBudget(64 << 20)
	compCache := plcache.NewWithBudget(64 << 20)
	disk.SetPostingCache(diskCache)
	comp.SetPostingCache(compCache)
	run("disk-cold", disk)
	run("disk-warm", disk)
	run("cindex-cold", comp)
	run("cindex-warm", comp)
	for label, c := range map[string]*plcache.Cache{"disk": diskCache, "cindex": compCache} {
		if st := c.Snapshot(); st.Hits == 0 {
			t.Errorf("%s: warm pass produced no cache hits (stats %+v)", label, st)
		}
	}
}

// TestAllVariantsAgreeAcrossViews runs all fourteen algorithm variants
// in exact mode over the in-memory view and the on-disk index under
// both block codecs, each with no decoded-block cache and with a cold
// and then a warm one, and requires brute force's top-k, scores
// included, from every one; the sequential deterministic variants must
// also report identical traversal Stats across views.
func TestAllVariantsAgreeAcrossViews(t *testing.T) {
	mem, disk, comp := equivViews(t, 99)
	disk.SetPostingCache(plcache.NewWithBudget(64 << 20))
	comp.SetPostingCache(plcache.NewWithBudget(64 << 20))
	// Reopen: the same indexes with no cache attached.
	diskBare, compBare := disk.Reopen(iomodel.RAMConfig()), comp.Reopen(iomodel.RAMConfig())
	if disk.Codec() != codec.Raw || comp.Codec() != codec.Group {
		t.Fatalf("views built with %v and %v, want raw and group", disk.Codec(), comp.Codec())
	}

	sequential := map[bench.AlgoID]bool{
		bench.AlgoRA: true, bench.AlgoNRA: true,
		bench.AlgoWAND: true, bench.AlgoMaxScore: true, bench.AlgoBMW: true,
		bench.AlgoJASS: true,
	}

	for _, m := range []int{2, 5} {
		q := algotest.RandomQuery(mem, m, uint64(400+m))
		k := 15
		exact := topk.BruteForce(mem, q, k)
		for _, id := range suiteAlgos {
			opts := topk.Options{K: k, Exact: true, Threads: 2}
			if sequential[id] {
				opts.Threads = 1
			}
			memSt := make(map[string]topk.Stats)
			for _, view := range []struct {
				label string
				v     postings.View
			}{
				{"mem", mem},
				{"raw", diskBare}, {"raw-cold", disk}, {"raw-warm", disk},
				{"group", compBare}, {"group-cold", comp}, {"group-warm", comp},
			} {
				name := fmt.Sprintf("m%d/%s/%s", m, id, view.label)
				got, st, err := makeAlgorithm(t, id, mem, view.v).Search(q, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				algotest.AssertExact(t, name, exact, got)
				if sequential[id] {
					memSt[view.label] = st
					if ref, ok := memSt["mem"]; ok && st.Postings != ref.Postings {
						t.Errorf("%s: traversed %d postings, in-memory reference %d",
							name, st.Postings, ref.Postings)
					}
				}
			}
		}
	}
}
