// Frozen segments: a memtable flushed into the existing diskindex
// block format.
//
// A frozen segment reuses diskindex's directory layout verbatim, with
// raw-frequency payload semantics: each posting's u32 Score field
// holds the term frequency, the impact region is pre-sorted by the
// idf-independent weight w (descending), and the dictionary / block-max
// Max fields hold ceil(w × 10⁶) — see score.go for why this preserves
// byte-identical scores and valid pruning bounds under any future
// corpus statistics. Term frequencies in w order are not monotone, so
// segments are written with codec.Raw, the one block codec that stores
// the field without interpreting it. A sidecar (seglens.bin) carries
// the per-document token lengths as one group-coded stream,
// RAM-resident like a search engine's norms file; the global doc-id
// range and generation live in the live index's manifest.
//
// A memtable holds its lists in this payload form already (memtable.go),
// so a flush writes them as they are, and one view (view.go) serves both
// segment kinds. All posting traversal of a frozen segment goes through
// diskindex's charged block cursors, bound through the view, so frozen
// segments keep the simulated-I/O accounting — cancellation and
// settlement included — of a build-once on-disk index.
package liveindex

import (
	"fmt"
	"os"
	"path/filepath"

	"sparta/internal/codec"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/merkle"
	"sparta/internal/model"
	"sparta/internal/postings"
)

// segLensFile is the per-segment sidecar of u32 document lengths.
const segLensFile = "seglens.bin"

// frozenSeg is one immutable on-disk segment; its document tables are
// RAM-resident.
type frozenSeg struct {
	segment
	dir   string
	inner *diskindex.Index
	dfs   []int32 // local df per term (dictionary cache)
	// files/root are the flush-time digests recorded in the live
	// manifest and re-verified before the segment is served.
	files []merkle.FileDigest
	root  string
}

// segmentFiles are the on-disk artifacts of one frozen segment, in
// manifest (and Merkle leaf) order.
var segmentFiles = []string{
	diskindex.ManifestFile, diskindex.DirFile, diskindex.PostingsFile, segLensFile,
}

// digestFrozen hashes a frozen segment's files into manifest digests
// plus their Merkle root.
func digestFrozen(dir string) ([]merkle.FileDigest, string, error) {
	files := make([]merkle.FileDigest, 0, len(segmentFiles))
	for _, name := range segmentFiles {
		fd, err := merkle.HashFile(dir, name)
		if err != nil {
			return nil, "", fmt.Errorf("liveindex: digesting segment: %w", err)
		}
		files = append(files, fd)
	}
	return files, merkle.Root(files), nil
}

// writeFrozen serializes a segment snapshot into dir: its lists, as
// they are, in the diskindex layout, plus the length sidecar.
func writeFrozen(dir string, seg *memSegment) error {
	nTerms := len(seg.terms)
	terms := make([]index.TermStats, nTerms)
	post := make([][]model.Posting, nTerms)
	impact := make([][]model.Posting, nTerms)
	blocks := make([][]postings.BlockMeta, nTerms)
	for t := range seg.terms {
		mt := seg.term(model.TermID(t))
		terms[t] = index.TermStats{DF: len(mt.post), Max: mt.max}
		post[t], impact[t], blocks[t] = mt.post, mt.impact, mt.blocks
	}
	// NumDocs is the end of the segment's global id range so the
	// encoder's document-space math stays in bounds; the serving view
	// overrides it with the epoch's corpus size.
	raw := index.NewPrebuilt(seg.NumDocs(), terms, post, impact, blocks)
	if err := diskindex.WriteDir(raw, dir); err != nil {
		return err
	}
	lens := codec.AppendUint32Stream(make([]byte, 0, len(seg.docLens)+8), seg.docLens)
	if err := os.WriteFile(filepath.Join(dir, segLensFile), lens, 0o644); err != nil {
		return fmt.Errorf("liveindex: writing %s: %w", segLensFile, err)
	}
	return nil
}

// openFrozen opens a frozen segment directory over a fresh simulated
// store. gen, lo and hi come from the live manifest.
func openFrozen(dir string, gen int, lo, hi model.DocID, cfg iomodel.Config) (*frozenSeg, error) {
	inner, err := diskindex.OpenDir(dir, cfg)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, segLensFile))
	if err != nil {
		return nil, fmt.Errorf("liveindex: %w", err)
	}
	docLens, err := codec.DecodeUint32Stream(raw, int(hi-lo), nil)
	if err != nil {
		return nil, fmt.Errorf("liveindex: decoding %s in %s: %w", segLensFile, dir, err)
	}
	s := &frozenSeg{
		segment: segment{
			kind: "frozen", gen: gen, lo: lo, hi: hi,
			docLens: docLens, sqrtLen: sqrtLens(docLens), bytes: inner.CompressedBytes(),
		},
		dir: dir, inner: inner, dfs: make([]int32, inner.NumTerms()),
	}
	for t := range s.dfs {
		df := inner.DF(model.TermID(t))
		s.dfs[t] = int32(df)
		s.blocks += (df + postings.BlockSize - 1) / postings.BlockSize
	}
	return s, nil
}
