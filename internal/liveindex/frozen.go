// Frozen segments: a memtable flushed into the existing diskindex
// block format, plus the epoch-bound view that serves it.
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
// All posting traversal goes through diskindex's charged block
// cursors, so frozen segments keep the simulated-I/O accounting —
// including BindExec pass-through for cancellation and settlement — of
// a build-once on-disk index.
package liveindex

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

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

// frozenStoredShards is the sNRA pre-partition count written into
// frozen payloads. Stored sublists are built against segment-local
// statistics and unusable for epoch-global shard ranges, so they are
// kept minimal; the view filters the impact order instead.
const frozenStoredShards = 1

// frozenSeg is one immutable on-disk segment.
type frozenSeg struct {
	dir     string
	gen     int
	lo, hi  model.DocID
	docLens []uint32  // per local document, RAM-resident
	sqrtLen []float64 // √docLens, rawWeight's denominator (sqrtLens)
	inner   *diskindex.Index
	dfs     []int32 // local df per term (dictionary cache)
	nBlocks int     // total block-max blocks, for stats
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

func (s *frozenSeg) docs() int { return int(s.hi - s.lo) }

func (s *frozenSeg) localDF(t model.TermID) int {
	if int(t) >= len(s.dfs) {
		return 0
	}
	return int(s.dfs[t])
}

func (s *frozenSeg) docLen(d model.DocID) int { return int(s.docLens[d-s.lo]) }

// weight is rawWeight(tf, docLen(d)) from the segment's tables: the
// same float operations on the same operands, so the same bits, without
// a logarithm and a square root per posting.
func (s *frozenSeg) weight(tf uint32, d model.DocID) float64 {
	if tf < uint32(len(logTF)) {
		return logTF[tf] / s.sqrtLen[d-s.lo]
	}
	return rawWeight(tf, s.docLen(d))
}

// writeFrozen serializes a raw segment snapshot into dir using the
// diskindex layout plus the length sidecar.
func writeFrozen(dir string, seg *memSegment) error {
	nTerms := len(seg.terms)
	terms := make([]index.TermStats, nTerms)
	post := make([][]model.Posting, nTerms)
	impact := make([][]model.Posting, nTerms)
	blocks := make([][]postings.BlockMeta, nTerms)
	for t := 0; t < nTerms; t++ {
		mt := seg.term(model.TermID(t))
		list := mt.post
		if len(list) == 0 {
			continue
		}
		terms[t] = index.TermStats{DF: len(list), Max: model.Score(quantUp(mt.wmax))}
		pl := make([]model.Posting, len(list))
		for i, p := range list {
			pl[i] = model.Posting{Doc: p.doc, Score: model.Score(p.tf)}
		}
		post[t] = pl
		il := make([]model.Posting, len(list))
		for i, p := range mt.impact {
			il[i] = model.Posting{Doc: p.doc, Score: model.Score(p.tf)}
		}
		impact[t] = il
		bl := make([]postings.BlockMeta, len(mt.blocks))
		for i, b := range mt.blocks {
			bl[i] = postings.BlockMeta{Last: b.last, Max: model.Score(quantUp(b.wmax))}
		}
		blocks[t] = bl
	}
	// NumDocs is the end of the segment's global id range so the
	// encoder's document-space math stays in bounds; the serving view
	// overrides it with the epoch's corpus size.
	raw := index.NewPrebuilt(int(seg.hi), terms, post, impact, blocks)
	if err := diskindex.WriteDir(raw, frozenStoredShards, dir); err != nil {
		return err
	}
	lensVals := make([]uint32, len(seg.docLens))
	for i, n := range seg.docLens {
		lensVals[i] = uint32(n)
	}
	lens := codec.AppendUint32Stream(make([]byte, 0, len(lensVals)+8), lensVals)
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
		dir: dir, gen: gen, lo: lo, hi: hi,
		docLens: docLens, sqrtLen: sqrtLens(docLens), inner: inner,
		dfs: make([]int32, inner.NumTerms()),
	}
	for t := 0; t < inner.NumTerms(); t++ {
		df := inner.DF(model.TermID(t))
		s.dfs[t] = int32(df)
		s.nBlocks += (df + postings.BlockSize - 1) / postings.BlockSize
	}
	return s, nil
}

// frozenView serves one frozen segment under one epoch's global
// statistics. src is the raw inner view; after BindExec it is the bound
// inner view, also held as bound.
type frozenView struct {
	seg   *frozenSeg
	n     int
	df    []int32
	src   postings.View
	bound postings.BoundView // nil until BindExec
}

var _ postings.ExecBinder = (*frozenView)(nil)

func newFrozenView(seg *frozenSeg, n int, df []int32) *frozenView {
	return &frozenView{seg: seg, n: n, df: df, src: seg.inner}
}

func (v *frozenView) idf(t model.TermID) float64 { return idfOf(v.n, int(v.df[t])) }

func (v *frozenView) NumDocs() int  { return v.n }
func (v *frozenView) NumTerms() int { return len(v.df) }

// DF implements postings.View: segment-local, like a shard view;
// scoring uses the epoch-global df via idf.
func (v *frozenView) DF(t model.TermID) int { return v.seg.localDF(t) }

// MaxScore implements postings.View: the stored quantized weight
// mapped to a (possibly 1-loose) upper bound — exactly what the
// pruning algorithms need, never less than the true maximum.
func (v *frozenView) MaxScore(t model.TermID) model.Score {
	if v.seg.localDF(t) == 0 {
		return 0
	}
	return boundOf(uint32(v.seg.inner.MaxScore(t)), v.idf(t))
}

func (v *frozenView) DocCursor(t model.TermID) postings.DocCursor {
	if v.seg.localDF(t) == 0 {
		return postings.NewSliceDocCursor(nil, nil, 0)
	}
	return &fzDocCursor{in: v.src.DocCursor(t), seg: v.seg, idf: v.idf(t)}
}

func (v *frozenView) ScoreCursor(t model.TermID) postings.ScoreCursor {
	if v.seg.localDF(t) == 0 {
		return postings.NewSliceScoreCursor(nil, 0)
	}
	return &fzScoreCursor{in: v.src.ScoreCursor(t), seg: v.seg, idf: v.idf(t), max: v.MaxScore(t)}
}

// ScoreCursorShard implements postings.View by filtering the impact
// order to the epoch-global shard range (the stored sublists were
// partitioned against segment-local statistics and don't line up).
// The reported Len is the full list length — an upper bound; sNRA, the
// shared-nothing baseline it serves, is exact all the same, and the
// per-segment identity suite checks it.
func (v *frozenView) ScoreCursorShard(t model.TermID, shard, nShards int) postings.ScoreCursor {
	if nShards <= 1 {
		return v.ScoreCursor(t)
	}
	if v.seg.localDF(t) == 0 {
		return postings.NewSliceScoreCursor(nil, 0)
	}
	lo, hi := postings.ShardRange(v.n, shard, nShards)
	return &rangeScoreCursor{in: v.ScoreCursor(t), lo: lo, hi: hi}
}

func (v *frozenView) RandomAccess(t model.TermID, d model.DocID) (model.Score, bool) {
	if v.seg.localDF(t) == 0 || d < v.seg.lo || d >= v.seg.hi {
		return 0, false
	}
	tf, ok := v.src.RandomAccess(t, d)
	if !ok {
		return 0, false
	}
	return scoreOf(v.seg.weight(uint32(tf), d), v.idf(t)), true
}

// Resident implements postings.View: the inner index's probe.
func (v *frozenView) Resident(t model.TermID, d model.DocID) bool { return v.src.Resident(t, d) }

// BindExec implements postings.ExecBinder by binding the inner
// diskindex view and rewrapping, so bound cursors keep the
// cancellation and settlement semantics of the charged read path.
func (v *frozenView) BindExec(ctx context.Context, onIO func(time.Duration), onStop func(), onCache func(bool)) postings.BoundView {
	bound := v.seg.inner.BindExec(ctx, onIO, onStop, onCache)
	return &frozenView{seg: v.seg, n: v.n, df: v.df, src: bound, bound: bound}
}

// SettleAll implements postings.BoundView: it settles the bound inner
// view (an unbound view has nothing to settle).
func (v *frozenView) SettleAll() {
	if v.bound != nil {
		v.bound.SettleAll()
	}
}

// fzDocCursor maps a raw (doc, tf) cursor to final scores.
type fzDocCursor struct {
	in  postings.DocCursor
	seg *frozenSeg
	idf float64
}

func (c *fzDocCursor) Next() bool                            { return c.in.Next() }
func (c *fzDocCursor) SkipTo(d model.DocID) bool             { return c.in.SkipTo(d) }
func (c *fzDocCursor) Doc() model.DocID                      { return c.in.Doc() }
func (c *fzDocCursor) Len() int                              { return c.in.Len() }
func (c *fzDocCursor) BlockLast() model.DocID                { return c.in.BlockLast() }
func (c *fzDocCursor) BlockLastAt(d model.DocID) model.DocID { return c.in.BlockLastAt(d) }

func (c *fzDocCursor) Score() model.Score {
	return scoreOf(c.seg.weight(uint32(c.in.Score()), c.in.Doc()), c.idf)
}

func (c *fzDocCursor) MaxScore() model.Score { return boundOf(uint32(c.in.MaxScore()), c.idf) }
func (c *fzDocCursor) BlockMax() model.Score { return boundOf(uint32(c.in.BlockMax()), c.idf) }
func (c *fzDocCursor) BlockMaxAt(d model.DocID) model.Score {
	return boundOf(uint32(c.in.BlockMaxAt(d)), c.idf)
}

// fzScoreCursor maps a raw w-ordered cursor to final scores; the
// monotone map keeps the order non-increasing.
type fzScoreCursor struct {
	in  postings.ScoreCursor
	seg *frozenSeg
	idf float64
	max model.Score
	pos int // 0 before start, 1 started, 2 exhausted
	cur model.Score
}

func (c *fzScoreCursor) Next() bool {
	if !c.in.Next() {
		c.pos = 2
		return false
	}
	c.pos = 1
	c.cur = scoreOf(c.seg.weight(uint32(c.in.Score()), c.in.Doc()), c.idf)
	return true
}

func (c *fzScoreCursor) Doc() model.DocID   { return c.in.Doc() }
func (c *fzScoreCursor) Score() model.Score { return c.cur }
func (c *fzScoreCursor) Len() int           { return c.in.Len() }

func (c *fzScoreCursor) Bound() model.Score {
	switch c.pos {
	case 0:
		return c.max
	case 2:
		return 0
	}
	return c.cur
}

// rangeScoreCursor filters a score-order cursor to a document range,
// preserving order and bounds. Len is inherited (an upper bound).
type rangeScoreCursor struct {
	in     postings.ScoreCursor
	lo, hi model.DocID
}

func (c *rangeScoreCursor) Next() bool {
	for c.in.Next() {
		if d := c.in.Doc(); d >= c.lo && d < c.hi {
			return true
		}
	}
	return false
}

func (c *rangeScoreCursor) Doc() model.DocID   { return c.in.Doc() }
func (c *rangeScoreCursor) Score() model.Score { return c.in.Score() }
func (c *rangeScoreCursor) Bound() model.Score { return c.in.Bound() }
func (c *rangeScoreCursor) Len() int           { return c.in.Len() }
