package cindex

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/codec"
	"sparta/internal/core"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func testCfg() iomodel.Config {
	cfg := iomodel.DefaultConfig()
	cfg.NoSleep = true
	return cfg
}

func buildBoth(t *testing.T, seed uint64) (*index.Index, *Index) {
	t.Helper()
	mem := algotest.MediumIndex(t, seed)
	ci, err := FromIndex(mem, 4, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	return mem, ci
}

func buildBothWith(t *testing.T, seed uint64, id codec.ID) (*index.Index, *Index) {
	t.Helper()
	mem := algotest.MediumIndex(t, seed)
	ci, err := diskindex.FromIndexWith(mem, 4, testCfg(), id)
	if err != nil {
		t.Fatal(err)
	}
	return mem, ci
}

func TestCompressedMatchesUncompressed(t *testing.T) {
	mem, ci := buildBoth(t, 1)
	if ci.NumDocs() != mem.NumDocs() || ci.NumTerms() != mem.NumTerms() {
		t.Fatal("sizes differ")
	}
	for tid := 0; tid < mem.NumTerms(); tid += 5 {
		term := model.TermID(tid)
		if ci.DF(term) != mem.DF(term) || ci.MaxScore(term) != mem.MaxScore(term) {
			t.Fatalf("term %d stats differ", tid)
		}
		// Doc-order traversal identical.
		cc, mc := ci.DocCursor(term), mem.DocCursor(term)
		for mc.Next() {
			if !cc.Next() {
				t.Fatalf("term %d compressed cursor short", tid)
			}
			if cc.Doc() != mc.Doc() || cc.Score() != mc.Score() {
				t.Fatalf("term %d doc cursor mismatch at doc %d", tid, mc.Doc())
			}
		}
		if cc.Next() {
			t.Fatalf("term %d compressed cursor long", tid)
		}
		// Impact traversal identical.
		cs, ms := ci.ScoreCursor(term), mem.ScoreCursor(term)
		for ms.Next() {
			if !cs.Next() {
				t.Fatalf("term %d impact cursor short", tid)
			}
			if cs.Doc() != ms.Doc() || cs.Score() != ms.Score() {
				t.Fatalf("term %d impact mismatch", tid)
			}
			if cs.Bound() != cs.Score() {
				t.Fatalf("term %d bound %d != score %d", tid, cs.Bound(), cs.Score())
			}
		}
	}
}

func TestCompressedSkipTo(t *testing.T) {
	mem, ci := buildBoth(t, 2)
	term := model.TermID(0)
	list := mem.Postings(term)
	c := ci.DocCursor(term)
	for i := 0; i < len(list); i += 7 {
		want := list[i]
		if !c.SkipTo(want.Doc) {
			t.Fatalf("SkipTo(%d) failed", want.Doc)
		}
		if c.Doc() != want.Doc || c.Score() != want.Score {
			t.Fatalf("SkipTo(%d) landed on (%d,%d)", want.Doc, c.Doc(), c.Score())
		}
	}
	if c.SkipTo(model.DocID(mem.NumDocs() + 1)) {
		t.Error("SkipTo past end succeeded")
	}
	if c.Next() {
		t.Error("Next after exhaustion succeeded")
	}
}

func TestCompressedSkipToBetween(t *testing.T) {
	mem, ci := buildBoth(t, 3)
	term := model.TermID(1)
	list := mem.Postings(term)
	c := ci.DocCursor(term)
	// Skip to an id between two postings: must land on the next one.
	for i := 1; i < len(list); i += 11 {
		target := list[i-1].Doc + 1
		want := list[i]
		if target > want.Doc {
			continue
		}
		if !c.SkipTo(target) || c.Doc() != want.Doc {
			t.Fatalf("SkipTo(%d) landed on %d, want %d", target, c.Doc(), want.Doc)
		}
	}
}

func TestCompressedBlockMetadata(t *testing.T) {
	mem, ci := buildBoth(t, 4)
	term := model.TermID(0)
	cc, mc := ci.DocCursor(term), mem.DocCursor(term)
	for mc.Next() && cc.Next() {
		if cc.BlockMax() != mc.BlockMax() || cc.BlockLast() != mc.BlockLast() {
			t.Fatalf("block metadata mismatch at doc %d", mc.Doc())
		}
		if cc.BlockMaxAt(mc.Doc()) != mc.BlockMaxAt(mc.Doc()) {
			t.Fatalf("BlockMaxAt mismatch at %d", mc.Doc())
		}
	}
}

func TestCompressedRandomAccess(t *testing.T) {
	mem, ci := buildBoth(t, 5)
	for tid := 0; tid < mem.NumTerms(); tid += 17 {
		term := model.TermID(tid)
		for i, p := range mem.Postings(term) {
			if i%3 != 0 {
				continue
			}
			s, ok := ci.RandomAccess(term, p.Doc)
			if !ok || s != p.Score {
				t.Fatalf("term %d RandomAccess(%d) = %d,%v", tid, p.Doc, s, ok)
			}
		}
		if _, ok := ci.RandomAccess(term, model.DocID(mem.NumDocs()+3)); ok {
			t.Fatalf("term %d RA hit for absent doc", tid)
		}
	}
}

func TestCompressedShards(t *testing.T) {
	mem, ci := buildBoth(t, 6)
	const shards = 4
	for tid := 0; tid < mem.NumTerms(); tid += 23 {
		term := model.TermID(tid)
		total := 0
		for s := 0; s < shards; s++ {
			c := ci.ScoreCursorShard(term, s, shards)
			prev := model.Score(1 << 60)
			for c.Next() {
				if c.Score() > prev {
					t.Fatalf("term %d shard %d out of order", tid, s)
				}
				prev = c.Score()
				total++
			}
		}
		if total != mem.DF(term) {
			t.Fatalf("term %d shards yield %d, df %d", tid, total, mem.DF(term))
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	_, ci := buildBoth(t, 7)
	ratio := float64(ci.RawBytes()) / float64(ci.CompressedBytes())
	if ratio < 1.5 {
		t.Errorf("compression ratio %.2f, want >= 1.5", ratio)
	}
	t.Logf("compression ratio %.2fx (%d -> %d bytes)", ratio, ci.RawBytes(), ci.CompressedBytes())
}

func TestAlgorithmsRunOnCompressedIndex(t *testing.T) {
	// The full stack works over the compressed view: Sparta end-to-end.
	mem, ci := buildBoth(t, 8)
	q := algotest.RandomQuery(mem, 5, 31)
	exact := topk.BruteForce(mem, q, 20)
	got, _, err := core.New(ci).Search(q, topk.Options{K: 20, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec := model.Recall(exact, got); rec != 1 {
		t.Errorf("Sparta over cindex recall %v", rec)
	}
}

func TestShardCountMismatchPanics(t *testing.T) {
	_, ci := buildBoth(t, 9)
	defer func() {
		if recover() == nil {
			t.Error("no panic on shard mismatch")
		}
	}()
	ci.ScoreCursorShard(0, 0, 7)
}

func TestWriteOpenDirRoundTrip(t *testing.T) {
	mem := algotest.MediumIndex(t, 10)
	dir := t.TempDir()
	if err := diskindex.WriteDirWith(mem, 4, dir, codec.Group); err != nil {
		t.Fatal(err)
	}
	ci, err := diskindex.OpenDir(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ci.NumDocs() != mem.NumDocs() || ci.NumTerms() != mem.NumTerms() {
		t.Fatal("sizes differ after round trip")
	}
	// Full traversal equivalence for a sample of terms.
	for tid := 0; tid < mem.NumTerms(); tid += 11 {
		term := model.TermID(tid)
		cc, mc := ci.DocCursor(term), mem.DocCursor(term)
		for mc.Next() {
			if !cc.Next() || cc.Doc() != mc.Doc() || cc.Score() != mc.Score() {
				t.Fatalf("term %d mismatch after reopen", tid)
			}
		}
		if cc.Next() {
			t.Fatalf("term %d cursor long after reopen", tid)
		}
	}
	// Shards and random access survive too.
	total := 0
	for s := 0; s < 4; s++ {
		c := ci.ScoreCursorShard(0, s, 4)
		for c.Next() {
			total++
		}
	}
	if total != mem.DF(0) {
		t.Errorf("shards yield %d, df %d", total, mem.DF(0))
	}
	for _, p := range mem.Postings(1) {
		if s, ok := ci.RandomAccess(1, p.Doc); !ok || s != p.Score {
			t.Fatalf("RandomAccess(%d) after reopen", p.Doc)
		}
	}
	// Sparta runs over a reopened compressed index.
	q := algotest.RandomQuery(mem, 4, 13)
	exact := topk.BruteForce(mem, q, 10)
	got, _, err := core.New(ci).Search(q, topk.Options{K: 10, Exact: true, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec := model.Recall(exact, got); rec != 1 {
		t.Errorf("recall %v over reopened cindex", rec)
	}
}

func TestOpenDirCorrupt(t *testing.T) {
	mem := algotest.SmallIndex(t, 11)
	dir := t.TempDir()
	if err := diskindex.WriteDirWith(mem, 2, dir, codec.Group); err != nil {
		t.Fatal(err)
	}
	// Truncated directory file must error, not panic.
	raw, err := os.ReadFile(filepath.Join(dir, diskindex.DirFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, diskindex.DirFile), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diskindex.OpenDir(dir, testCfg()); err == nil {
		t.Error("truncated directory accepted")
	}
	// Bad manifest.
	os.WriteFile(filepath.Join(dir, diskindex.ManifestFile), []byte("nope"), 0o644)
	if _, err := diskindex.OpenDir(dir, testCfg()); err == nil {
		t.Error("bad manifest accepted")
	}
	if _, err := diskindex.OpenDir(t.TempDir(), testCfg()); err == nil {
		t.Error("empty dir accepted")
	}
}

// TestBothCodecsMatchUncompressed runs the traversal-equivalence check
// under each codec id: the codec changes bytes on disk, never what a
// cursor yields.
func TestBothCodecsMatchUncompressed(t *testing.T) {
	for _, id := range []codec.ID{codec.Raw, codec.Group} {
		t.Run(id.String(), func(t *testing.T) {
			mem, ci := buildBothWith(t, 21, id)
			if ci.Codec() != id {
				t.Fatalf("built with codec %v, index reports %v", id, ci.Codec())
			}
			for tid := 0; tid < mem.NumTerms(); tid += 7 {
				term := model.TermID(tid)
				cc, mc := ci.DocCursor(term), mem.DocCursor(term)
				for mc.Next() {
					if !cc.Next() || cc.Doc() != mc.Doc() || cc.Score() != mc.Score() {
						t.Fatalf("term %d doc traversal mismatch", tid)
					}
				}
				if cc.Next() {
					t.Fatalf("term %d compressed cursor long", tid)
				}
				cs, ms := ci.ScoreCursor(term), mem.ScoreCursor(term)
				for ms.Next() {
					if !cs.Next() || cs.Doc() != ms.Doc() || cs.Score() != ms.Score() {
						t.Fatalf("term %d impact traversal mismatch", tid)
					}
				}
			}
			// Sparta end to end over this codec.
			q := algotest.RandomQuery(mem, 5, 29)
			exact := topk.BruteForce(mem, q, 15)
			got, _, err := core.New(ci).Search(q, topk.Options{K: 15, Exact: true, Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if rec := model.Recall(exact, got); rec != 1 {
				t.Errorf("recall %v over %v cindex", rec, id)
			}
		})
	}
}

// TestCodecPersistsAcrossWriteOpen writes a directory with each codec
// and checks the reopened index both reports it and still decodes with
// it; this package's constructor names the group codec.
func TestCodecPersistsAcrossWriteOpen(t *testing.T) {
	mem := algotest.MediumIndex(t, 22)
	for _, id := range []codec.ID{codec.Raw, codec.Group} {
		dir := t.TempDir()
		if err := diskindex.WriteDirWith(mem, 4, dir, id); err != nil {
			t.Fatal(err)
		}
		ci, err := diskindex.OpenDir(dir, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		if m := ci.Manifest(); ci.Codec() != id || m.Codec != id || m.Version != diskindex.FormatVersion {
			t.Fatalf("reopened codec %v, manifest %+v, want %v at version %d", ci.Codec(), m, id, diskindex.FormatVersion)
		}
		for tid := 0; tid < mem.NumTerms(); tid += 13 {
			term := model.TermID(tid)
			cc, mc := ci.DocCursor(term), mem.DocCursor(term)
			for mc.Next() {
				if !cc.Next() || cc.Doc() != mc.Doc() || cc.Score() != mc.Score() {
					t.Fatalf("term %d mismatch after %v reopen", tid, id)
				}
			}
		}
	}
	ci, err := FromIndex(mem, 4, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ci.Codec() != codec.Group {
		t.Fatalf("cindex.FromIndex built with codec %v, want %v", ci.Codec(), codec.Group)
	}
}

// TestOpenDirRefusesOldVersion hand-writes the manifests of the formats
// and the codec this one retired: OpenDir must return
// *diskindex.RebuildError so tooling can tell "rebuild" apart from
// "corrupt".
func TestOpenDirRefusesOldVersion(t *testing.T) {
	mem := algotest.SmallIndex(t, 23)
	for name, old := range map[string]struct{ file, manifest string }{
		"cindex v2":         {"cmanifest.json", `{"Version":2,"NumDocs":10,"NumTerms":5,"Shards":2,"RawBytes":400}`},
		"cindex v3 codec 0": {"cmanifest.json", `{"Version":3,"NumDocs":10,"NumTerms":5,"Shards":2,"Codec":0,"RawBytes":400}`},
		"retired codec":     {diskindex.ManifestFile, `{"Version":4,"NumDocs":10,"NumTerms":5,"Shards":2,"Codec":0}`},
		"unknown codec":     {diskindex.ManifestFile, `{"Version":4,"NumDocs":10,"NumTerms":5,"Shards":2,"Codec":9}`},
		"old version":       {diskindex.ManifestFile, `{"Version":3,"NumDocs":10,"NumTerms":5,"Shards":2,"Codec":1}`},
	} {
		dir := t.TempDir()
		if err := diskindex.WriteDirWith(mem, 2, dir, codec.Group); err != nil {
			t.Fatal(err)
		}
		if old.file != diskindex.ManifestFile {
			os.Remove(filepath.Join(dir, diskindex.ManifestFile))
		}
		if err := os.WriteFile(filepath.Join(dir, old.file), []byte(old.manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := diskindex.OpenDir(dir, testCfg())
		var re *diskindex.RebuildError
		if !errors.As(err, &re) {
			t.Errorf("%s: OpenDir returned %v, want *diskindex.RebuildError", name, err)
		}
	}
}

// TestCancelledCompressedQuerySettles cancels Sparta mid-flight over a
// compressed view with real (sleeping) I/O charges and checks the
// store settles on the cancellation path. A completed query must
// settle too.
func TestCancelledCompressedQuerySettles(t *testing.T) {
	mem := algotest.MediumIndex(t, 24)
	ci, err := FromIndex(mem, 4, iomodel.DefaultConfig()) // sleeps on, so cancel lands mid-read
	if err != nil {
		t.Fatal(err)
	}
	q := algotest.RandomQuery(mem, 6, 37)
	opts := topk.Options{K: 50, Exact: true, Threads: 4}

	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(round) * 300 * time.Microsecond
		if delay == 0 {
			cancel() // pre-cancelled
		} else {
			time.AfterFunc(delay, cancel)
		}
		if _, _, err := core.New(ci).SearchContext(ctx, q, opts); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cancel()
		algotest.AssertSettled(t, "cancelled compressed query", ci.Store())
	}
	// Uncancelled completion settles as well and pays simulated I/O.
	if _, _, err := core.New(ci).Search(q, opts); err != nil {
		t.Fatal(err)
	}
	algotest.AssertSettled(t, "completed compressed query", ci.Store())
	if io := ci.Store().Snapshot(); io.SimulatedIO == 0 {
		t.Fatal("no simulated I/O charged; settlement was not exercised")
	}
}
