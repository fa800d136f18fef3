package diskindex

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparta/internal/codec"
	"sparta/internal/model"
)

// Failure-injection tests: a damaged index directory must produce
// errors, never panics or silent misreads.

func writeValidDir(t *testing.T) string {
	t.Helper()
	mem := testCorpusIndex(t, 100)
	dir := filepath.Join(t.TempDir(), "idx")
	if err := WriteDir(mem, 2, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestOpenDirBadManifestJSON(t *testing.T) {
	dir := writeValidDir(t)
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, testCfg()); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

func TestOpenDirWrongVersion(t *testing.T) {
	dir := writeValidDir(t)
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Version = 99
	out, _ := json.Marshal(m)
	os.WriteFile(filepath.Join(dir, ManifestFile), out, 0o644)
	if _, err := OpenDir(dir, testCfg()); err == nil {
		t.Error("future format version accepted")
	}
}

// TestOpenDirRetiredFormats: the two directory layouts this format
// replaced, and the codec id it retired, are each refused with the typed
// error that says what to do about it.
func TestOpenDirRetiredFormats(t *testing.T) {
	write := func(dir, name, content string) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	threeFile := filepath.Join(root, "v1")
	write(threeFile, ManifestFile, `{"Version":1,"NumDocs":3,"NumTerms":1,"Shards":2,"TotalPostings":3}`)
	write(threeFile, "dict.bin", "0123456789012345678901234567890123456789")
	write(threeFile, PostingsFile, "")
	compressed := filepath.Join(root, "v3")
	write(compressed, "cmanifest.json", `{"Version":3,"NumDocs":3,"NumTerms":1,"Shards":2,"Codec":1}`)
	write(compressed, "cdir.bin", "")
	write(compressed, "cpostings.bin", "")
	leb := writeValidDir(t)
	raw, err := os.ReadFile(filepath.Join(leb, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Codec = 0
	out, _ := json.Marshal(m)
	write(leb, ManifestFile, string(out))

	for name, dir := range map[string]string{"three-file": threeFile, "cindex": compressed, "codec 0": leb} {
		_, err := OpenDir(dir, testCfg())
		var re *RebuildError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), "rebuild") {
			t.Errorf("%s directory: err = %v, want a *RebuildError that says rebuild", name, err)
		}
	}
}

// dirTables locates the four tables of a dir.bin by its header.
func dirTables(buf []byte) []struct {
	name        string
	off, rec, n int
} {
	u := func(i int) int { return int(binary.LittleEndian.Uint32(buf[4*i:])) }
	nTerms, shards, nDoc, nImp := u(1), u(2), u(3), u(4)
	tabs := []struct {
		name        string
		off, rec, n int
	}{
		{"terms", 0, termRecSize, nTerms},
		{"shards", 0, shardRecSize, nTerms * shards},
		{"doc blocks", 0, docRecSize, nDoc},
		{"impact blocks", 0, impRecSize, nImp},
	}
	off := dirHeaderSize
	for i := range tabs {
		tabs[i].off = off
		off += tabs[i].rec * tabs[i].n
	}
	return tabs
}

// TestOpenDirCorruptDirectory damages every table of the directory file
// — truncation at each table's end, and every word of each table's
// first, middle and last record flipped low, flipped high and saturated
// — under both codecs. As written the damage breaks the checksum and
// must fail the open. With the checksum recomputed (a directory that is
// consistent but wrong, as a broken writer would leave it) the open may
// succeed only if the index is still safe to read: under codec.Raw
// every cursor, skip, lookup and walk then runs to the end without a
// panic. (Under codec.Group a block can still fail to decode against
// bounds the directory got wrong; see decode.)
func TestOpenDirCorruptDirectory(t *testing.T) {
	mem := testCorpusIndex(t, 150)
	for _, id := range []codec.ID{codec.Raw, codec.Group} {
		dir := filepath.Join(t.TempDir(), "idx")
		if err := WriteDirWith(mem, 3, dir, id); err != nil {
			t.Fatal(err)
		}
		good, err := os.ReadFile(filepath.Join(dir, DirFile))
		if err != nil {
			t.Fatal(err)
		}
		manifest, err := os.ReadFile(filepath.Join(dir, ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		var m Manifest
		if err := json.Unmarshal(manifest, &m); err != nil {
			t.Fatal(err)
		}
		// try writes buf as the directory file, with the manifest's
		// checksum either left stale or recomputed, and opens it.
		try := func(what string, buf []byte, fixCRC bool) {
			t.Helper()
			mm := m
			if fixCRC {
				mm.DirCRC = crc32.ChecksumIEEE(buf)
			}
			out, _ := json.Marshal(mm)
			os.WriteFile(filepath.Join(dir, ManifestFile), out, 0o644)
			os.WriteFile(filepath.Join(dir, DirFile), buf, 0o644)
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%v, %s, checksum fixed=%v: panic: %v", id, what, fixCRC, r)
				}
			}()
			x, err := OpenDir(dir, testCfg())
			if err != nil {
				return
			}
			if !fixCRC {
				t.Errorf("%v, %s: opened against a stale checksum", id, what)
			}
			if id == codec.Raw {
				readEverything(x)
			}
		}
		for _, tab := range dirTables(good) {
			end := tab.off + tab.rec*tab.n
			try("truncated inside "+tab.name, good[:end-1], false)
			if _, err := readDirectory(m, good[:end-1], 1<<40); err == nil {
				t.Errorf("%v: directory truncated inside %s passed validation", id, tab.name)
			}
			for _, r := range []int{0, tab.n / 2, tab.n - 1} {
				for w := 0; w < tab.rec; w += 4 {
					at := tab.off + r*tab.rec + w
					for _, mut := range []struct {
						name string
						f    func(uint32) uint32
					}{
						{"low bit", func(v uint32) uint32 { return v ^ 1 }},
						{"high bit", func(v uint32) uint32 { return v ^ 1<<31 }},
						{"saturated", func(uint32) uint32 { return math.MaxUint32 }},
					} {
						bad := append([]byte(nil), good...)
						v := binary.LittleEndian.Uint32(bad[at:])
						if mut.f(v) == v {
							continue
						}
						binary.LittleEndian.PutUint32(bad[at:], mut.f(v))
						what := fmt.Sprintf("%s record %d word %d %s", tab.name, r, w/4, mut.name)
						try(what, bad, false)
						try(what, bad, true)
					}
				}
			}
		}
		for w := 0; w < dirHeaderSize; w += 4 {
			bad := append([]byte(nil), good...)
			bad[w] ^= 1
			try(fmt.Sprintf("header word %d", w/4), bad, false)
			try(fmt.Sprintf("header word %d", w/4), bad, true)
		}
	}
}

// readEverything drives every read path of x to its end.
func readEverything(x *Index) {
	ctx := context.Background()
	for tid := 0; tid < x.NumTerms(); tid++ {
		t := model.TermID(tid)
		for c := x.DocCursor(t); c.Next(); {
			_, _ = c.BlockMax(), c.BlockLast()
		}
		c := x.DocCursor(t)
		for d := model.DocID(0); c.SkipTo(d); d = c.Doc() + 3 {
			_, _ = c.BlockMaxAt(d), c.BlockLastAt(d)
		}
		for c := x.ScoreCursor(t); c.Next(); {
			_ = c.Bound()
		}
		for s := 0; s < x.Shards(); s++ {
			for c := x.ScoreCursorShard(t, s, x.Shards()); c.Next(); {
			}
		}
		for d := 0; d < x.NumDocs(); d += 7 {
			x.RandomAccess(t, model.DocID(d))
		}
		x.WalkDocBlocks(ctx, t, false, func(int, []model.Posting) bool { return true })
	}
}

func TestOpenDirTruncatedDict(t *testing.T) {
	dir := writeValidDir(t)
	raw, err := os.ReadFile(filepath.Join(dir, DirFile))
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, DirFile), raw[:len(raw)-7], 0o644)
	if _, err := OpenDir(dir, testCfg()); err == nil {
		t.Error("truncated directory accepted")
	}
}

func TestOpenDirMissingPostings(t *testing.T) {
	dir := writeValidDir(t)
	os.Remove(filepath.Join(dir, PostingsFile))
	if _, err := OpenDir(dir, testCfg()); err == nil {
		t.Error("missing postings file accepted")
	}
}

func TestReaderBeyondFilePanics(t *testing.T) {
	// Reading past the postings region is a programming error and must
	// fail loudly rather than return garbage.
	mem := testCorpusIndex(t, 50)
	disk, err := FromIndex(mem, 2, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	st := disk.Store()
	h, err := st.Lookup(PostingsFile)
	if err != nil {
		t.Fatal(err)
	}
	rd := st.NewReader(h)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range read did not panic")
		}
	}()
	rd.View(st.FileSize(h)-4, 8)
}
