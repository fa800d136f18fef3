package diskindex

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"sparta/internal/codec"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
)

// An index directory holds three files:
//
//	manifest.json — corpus-level metadata, the codec id, and the
//	                directory file's checksum
//	dir.bin       — the RAM-resident block directory, as flat fixed-width
//	                tables: a header with the table lengths, then term
//	                records (df, max), shard records (n, max), doc block
//	                records (byte length, last doc id, block max) and
//	                impact block records (byte length, entering score
//	                bound), all little-endian u32
//	postings.bin  — the encoded blocks back to back, in directory order:
//	                per term its doc blocks, its impact blocks, then each
//	                shard sublist's blocks
//
// dir.bin stores only what cannot be derived. Blocks tile postings.bin
// in table order, so offsets are running sums of byte lengths; every
// block of a region but its last holds postings.BlockSize postings, so
// counts follow from df; a doc block decodes against the block before
// it, so bases are the previous record's last id. What OpenDir derives
// it cannot be lied to about: no offset points outside the region, no
// count is out of range, and the only sums left to check are the ones
// at the bottom of readDirectory.
const (
	ManifestFile = "manifest.json"
	DirFile      = "dir.bin"
	PostingsFile = "postings.bin"

	// FormatVersion identifies the layout. 1 was the uncompressed
	// manifest.json/dict.bin/postings.bin triple and 3 the compressed
	// cmanifest.json/cdir.bin/cpostings.bin one, both retired.
	FormatVersion = 4

	dirMagic      = 0x34786473 // "sdx4"
	dirHeaderSize = 4 * 5      // magic, nTerms, shards, nDocBlocks, nImpBlocks
	termRecSize   = 4 * 2
	shardRecSize  = 4 * 2
	docRecSize    = 4 * 3
	impRecSize    = 4 * 2

	// retiredManifest is the manifest name of format 3: a directory that
	// has it and no ManifestFile was written by the retired cindex.
	retiredManifest = "cmanifest.json"
)

// Manifest is the JSON-encoded corpus-level metadata.
type Manifest struct {
	Version  int
	NumDocs  int
	NumTerms int
	Shards   int
	Codec    codec.ID
	// TotalPostings sizes reports; RawBytes is derived from it.
	TotalPostings int64
	// DirCRC is the IEEE CRC-32 of DirFile: one flipped directory bit
	// can move a block bound or a score bound where no structural check
	// would see it, and an index that prunes on a wrong bound answers
	// wrongly without failing.
	DirCRC uint32
}

// RebuildError reports a directory written in a format, or with a
// codec, this build no longer reads — an index directory, or a shard
// set or live index whose manifest lists such directories. Nothing
// migrates one: rebuild it from the corpus (cmd/indexbuild,
// cmd/shardbuild) or re-ingest the documents.
type RebuildError struct {
	Dir    string
	Reason string
}

func (e *RebuildError) Error() string {
	return fmt.Sprintf("%s: %s; rebuild it", e.Dir, e.Reason)
}

// WriteDir serializes x into directory dir (created if needed) in the
// paper's uncompressed layout (codec.Raw).
func WriteDir(x *index.Index, shards int, dir string) error {
	return WriteDirWith(x, shards, dir, codec.Raw)
}

// WriteDirWith is WriteDir with the block codec named.
func WriteDirWith(x *index.Index, shards int, dir string, id codec.ID) error {
	d, region, err := build(x, shards, id)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, dirHeaderSize+len(d.terms)*termRecSize+len(d.shardRecs)*shardRecSize+
		len(d.docMeta)*docRecSize+len(d.impMeta)*impRecSize)
	u32 := func(vs ...uint32) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
	}
	u32(dirMagic, uint32(len(d.terms)), uint32(d.manifest.Shards), uint32(len(d.docMeta)), uint32(len(d.impMeta)))
	for _, tm := range d.terms {
		u32(uint32(tm.df), uint32(tm.max))
	}
	for _, r := range d.shardRecs {
		u32(uint32(r.n), uint32(r.max))
	}
	for i, b := range d.docMeta {
		u32(uint32(b.byteLen), uint32(d.docDir[i].Last), uint32(d.docDir[i].Max))
	}
	for _, b := range d.impMeta {
		u32(uint32(b.byteLen), b.ref)
	}
	m := d.manifest
	m.DirCRC = crc32.ChecksumIEEE(buf)
	mb, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("diskindex: encoding manifest: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("diskindex: creating %s: %w", dir, err)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{{ManifestFile, mb}, {DirFile, buf}, {PostingsFile, region}} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return fmt.Errorf("diskindex: writing %s: %w", f.name, err)
		}
	}
	return nil
}

// OpenDir loads an index directory into a fresh simulated store
// configured by cfg. The file bytes live in memory but every posting
// access is charged as if the index were disk-resident. Nothing in the
// directory is trusted: a damaged or inconsistent one is an error here,
// never a panic in a cursor, and one in a retired format is a
// *RebuildError.
func OpenDir(dir string, cfg iomodel.Config) (*Index, error) {
	mb, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		if _, serr := os.Stat(filepath.Join(dir, retiredManifest)); serr == nil {
			return nil, &RebuildError{Dir: dir, Reason: "compressed index of format version 3"}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("diskindex: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("diskindex: parsing manifest: %w", err)
	}
	if m.Version != FormatVersion {
		return nil, &RebuildError{Dir: dir, Reason: fmt.Sprintf("index format version %d, this build reads %d", m.Version, FormatVersion)}
	}
	if !m.Codec.Valid() {
		return nil, &RebuildError{Dir: dir, Reason: fmt.Sprintf("posting codec id %d is retired or unknown", uint8(m.Codec))}
	}
	dirBuf, err := os.ReadFile(filepath.Join(dir, DirFile))
	if err != nil {
		return nil, fmt.Errorf("diskindex: %w", err)
	}
	if got := crc32.ChecksumIEEE(dirBuf); got != m.DirCRC {
		return nil, fmt.Errorf("diskindex: %s checksum %#08x, manifest says %#08x", DirFile, got, m.DirCRC)
	}
	region, err := os.ReadFile(filepath.Join(dir, PostingsFile))
	if err != nil {
		return nil, fmt.Errorf("diskindex: %w", err)
	}
	d, err := readDirectory(m, dirBuf, int64(len(region)))
	if err != nil {
		return nil, fmt.Errorf("diskindex: %s: %w", DirFile, err)
	}
	return newIndex(d, region, cfg), nil
}

// readDirectory expands dir.bin into the in-memory directory, deriving
// offsets, counts, bases and table positions as the format comment
// describes, and checks everything a cursor will later rely on: table
// sizes against the header and the manifest, each raw block's byte
// length against its count, doc ids increasing and inside the corpus,
// block and score bounds inside their term's, each term's shard
// sublists adding up to its df, and the blocks tiling the postings
// region exactly.
func readDirectory(m Manifest, buf []byte, regionSize int64) (*directory, error) {
	if len(buf) < dirHeaderSize {
		return nil, fmt.Errorf("header truncated (%d bytes)", len(buf))
	}
	pos := 0
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(buf[pos:])
		pos += 4
		return v
	}
	if magic := u32(); magic != dirMagic {
		return nil, fmt.Errorf("bad magic %#x", magic)
	}
	nTerms, shards, nDoc, nImp := int64(u32()), int64(u32()), int64(u32()), int64(u32())
	// Bounding the counts by the file's size keeps their products small.
	room := int64(len(buf))
	if nTerms != int64(m.NumTerms) || shards != int64(m.Shards) || m.NumDocs < 0 || m.NumDocs > math.MaxUint32 ||
		shards < 1 || nTerms > room || shards > room/max(nTerms, 1) {
		return nil, fmt.Errorf("%d terms × %d shards, manifest says %d × %d over %d docs",
			nTerms, shards, m.NumTerms, m.Shards, m.NumDocs)
	}
	nShard := nTerms * shards
	if want := dirHeaderSize + nTerms*termRecSize + nShard*shardRecSize + nDoc*docRecSize + nImp*impRecSize; int64(len(buf)) != want {
		return nil, fmt.Errorf("%d bytes, tables need %d", len(buf), want)
	}
	d := &directory{
		manifest:  m,
		terms:     make([]termMeta, nTerms),
		shardRecs: make([]shardRec, nShard),
		docMeta:   make([]blockMeta, nDoc),
		docDir:    make([]postings.BlockMeta, nDoc),
		impMeta:   make([]blockMeta, nImp),
	}
	for t := range d.terms {
		d.terms[t] = termMeta{df: int32(u32()), max: model.Score(u32())}
	}
	for i := range d.shardRecs {
		d.shardRecs[i] = shardRec{n: int32(u32()), max: model.Score(u32())}
	}
	for i := range d.docMeta {
		d.docMeta[i].byteLen = int32(u32())
		d.docDir[i] = postings.BlockMeta{Last: model.DocID(u32()), Max: model.Score(u32())}
	}
	for i := range d.impMeta {
		d.impMeta[i] = blockMeta{byteLen: int32(u32()), ref: u32()}
	}

	// One pass in directory order hands every region its blocks.
	var (
		off          int64 // next block's offset in the postings region
		docAt, impAt int64 // next unclaimed record of each block table
		total        int64
	)
	// claim takes the next nBlocks(n) records of table for a region of n
	// postings, filling in offsets and counts.
	claim := func(table []blockMeta, at *int64, n int32) ([]blockMeta, error) {
		if n < 0 || *at+int64(nBlocks(n)) > int64(len(table)) {
			return nil, fmt.Errorf("a region of %d postings overruns its block table", n)
		}
		blocks := table[*at : *at+int64(nBlocks(n))]
		*at += int64(len(blocks))
		for i := range blocks {
			b := &blocks[i]
			b.off, b.count = off, min(n-int32(i)*postings.BlockSize, postings.BlockSize)
			if b.byteLen <= 0 || m.Codec == codec.Raw && b.byteLen != b.count*codec.RawPostingBytes {
				return nil, fmt.Errorf("a block of %d postings is %d bytes", b.count, b.byteLen)
			}
			off += int64(b.byteLen)
		}
		return blocks, nil
	}
	// claimImpact is claim on the impact table plus its score bounds:
	// every region enters at its term's max, and under a codec that
	// delta-codes scores no block enters above the one before it.
	claimImpact := func(n int32, max model.Score) error {
		blocks, err := claim(d.impMeta, &impAt, n)
		for i, b := range blocks {
			if i == 0 && b.ref != uint32(max) || i > 0 && m.Codec != codec.Raw && b.ref > blocks[i-1].ref {
				return fmt.Errorf("block %d enters at score %d under a term max of %d", i, b.ref, max)
			}
		}
		return err
	}
	for t := range d.terms {
		tm := &d.terms[t]
		tm.docStart, tm.impStart = int32(docAt), int32(impAt)
		docs, err := claim(d.docMeta, &docAt, tm.df)
		if err != nil {
			return nil, fmt.Errorf("term %d: %w", t, err)
		}
		base := int64(-1) // doc id before the region; the first block's base is 0
		for i := range docs {
			docs[i].ref = uint32(max(base, 0))
			bm := d.docDir[int(tm.docStart)+i]
			if int64(bm.Last) < base+int64(docs[i].count) || int64(bm.Last) >= int64(m.NumDocs) || bm.Max > tm.max {
				return nil, fmt.Errorf("term %d doc block %d: last id %d, max %d after id %d in a corpus of %d with term max %d",
					t, i, bm.Last, bm.Max, base, m.NumDocs, tm.max)
			}
			base = int64(bm.Last)
		}
		if err := claimImpact(tm.df, tm.max); err != nil {
			return nil, fmt.Errorf("term %d impact order: %w", t, err)
		}
		var sum int64
		recs := d.shardRecs[int64(t)*shards : int64(t+1)*shards]
		for s := range recs {
			rec := &recs[s]
			rec.blkStart = int32(impAt)
			if err := claimImpact(rec.n, tm.max); err != nil {
				return nil, fmt.Errorf("term %d shard %d: %w", t, s, err)
			}
			sum += int64(rec.n)
		}
		if sum != int64(tm.df) {
			return nil, fmt.Errorf("term %d: shard sublists hold %d postings, df is %d", t, sum, tm.df)
		}
		total += int64(tm.df)
	}
	if docAt != nDoc || impAt != nImp || off != regionSize || total != m.TotalPostings {
		return nil, fmt.Errorf("%d/%d doc and %d/%d impact blocks directed, %d/%d posting bytes, %d/%d postings",
			docAt, nDoc, impAt, nImp, off, regionSize, total, m.TotalPostings)
	}
	return d, nil
}
