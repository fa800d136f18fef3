// The epoch-bound view that serves a segment of either kind: a raw
// view of (doc, tf) postings — a frozen segment's diskindex.Index or a
// memtable snapshot — mapped to final scores with the epoch's global
// statistics (score.go).
package liveindex

import (
	"context"
	"time"

	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/scoring"
)

// segment is what both segment kinds share: the global document range,
// the per-document tables weight reads, and what SegmentStats reports.
type segment struct {
	kind    string // "frozen" or "memtable"
	gen     int    // a memtable's is the generation its flush takes
	lo, hi  model.DocID
	docLens []uint32  // per local document
	sqrtLen []float64 // √docLens, the weight's denominator (sqrtLens)
	bytes   int64     // stored postings of a frozen segment, heap lists of a memtable
	blocks  int       // block-max blocks of a frozen segment
}

func (s *segment) docs() int { return int(s.hi - s.lo) }

// weight is the idf-independent weight (1 + ln tf)/√|D| of a posting of
// d, with d's √|D| from the segment's table instead of a square root
// per posting.
func (s *segment) weight(tf uint32, d model.DocID) float64 {
	return scoring.LogTF(tf) / s.sqrtLen[d-s.lo]
}

// segView serves one segment under one epoch's global (N, df)
// statistics. src is the segment's raw view, bound to a query once
// BindExec has run.
type segView struct {
	seg *segment
	src postings.View
	n   int     // epoch-global corpus size
	df  []int32 // epoch-global document frequencies
}

func (v *segView) idf(t model.TermID) float64 { return scoring.IDF(v.n, int(v.df[t])) }

// NumDocs implements postings.View: the epoch-global corpus size, like
// a shard view presenting global document ids.
func (v *segView) NumDocs() int  { return v.n }
func (v *segView) NumTerms() int { return len(v.df) }

// DF implements postings.View: the segment-local document frequency
// (zero iff the segment's list is empty, which algorithms rely on);
// scoring uses the epoch-global df via idf. A term that joined the
// dictionary after the segment was written has none.
func (v *segView) DF(t model.TermID) int {
	if int(t) >= v.src.NumTerms() {
		return 0
	}
	return v.src.DF(t)
}

// MaxScore implements postings.View: the stored quantized weight
// mapped to a (possibly 1-loose) upper bound — exactly what the
// pruning algorithms need, never less than the true maximum.
func (v *segView) MaxScore(t model.TermID) model.Score {
	if v.DF(t) == 0 {
		return 0
	}
	return boundOf(uint32(v.src.MaxScore(t)), v.idf(t))
}

func (v *segView) DocCursor(t model.TermID) postings.DocCursor {
	if v.DF(t) == 0 {
		return postings.NewSliceDocCursor(nil, nil, 0)
	}
	return &docCursor{in: v.src.DocCursor(t), seg: v.seg, idf: v.idf(t)}
}

func (v *segView) ScoreCursor(t model.TermID) postings.ScoreCursor {
	if v.DF(t) == 0 {
		return postings.NewSliceScoreCursor(nil, 0)
	}
	return &scoreCursor{in: v.src.ScoreCursor(t), seg: v.seg, idf: v.idf(t), max: v.MaxScore(t)}
}

// ScoreCursorShard implements postings.View by filtering the impact
// order to the epoch-global shard range, so the shared-nothing
// baseline's partitions line up across every segment of a set (a
// frozen segment's stored sublists were partitioned against its own
// statistics). The reported Len is the full list length — an upper
// bound; sNRA, the baseline it serves, is exact all the same, and the
// per-segment identity suite checks it.
func (v *segView) ScoreCursorShard(t model.TermID, shard, nShards int) postings.ScoreCursor {
	if nShards <= 1 || v.DF(t) == 0 {
		return v.ScoreCursor(t)
	}
	lo, hi := postings.ShardRange(v.n, shard, nShards)
	return &rangeScoreCursor{in: v.ScoreCursor(t), lo: lo, hi: hi}
}

func (v *segView) RandomAccess(t model.TermID, d model.DocID) (model.Score, bool) {
	if v.DF(t) == 0 || d < v.seg.lo || d >= v.seg.hi {
		return 0, false
	}
	tf, ok := v.src.RandomAccess(t, d)
	if !ok {
		return 0, false
	}
	return scoring.Score(v.seg.weight(uint32(tf), d), v.idf(t)), true
}

// Resident implements postings.View: the raw view's probe.
func (v *segView) Resident(t model.TermID, d model.DocID) bool { return v.src.Resident(t, d) }

// BindExec implements postings.View by binding the raw view, so bound
// cursors keep the cancellation and settlement of a frozen segment's
// charged read path; a memtable snapshot binds to itself.
func (v *segView) BindExec(ctx context.Context, onIO func(time.Duration), onStop func(), onCache func(bool)) (postings.View, func()) {
	src, settle := v.src.BindExec(ctx, onIO, onStop, onCache)
	if src == v.src {
		return v, settle
	}
	return &segView{seg: v.seg, src: src, n: v.n, df: v.df}, settle
}

// docCursor maps a raw (doc, tf) cursor to final scores.
type docCursor struct {
	in  postings.DocCursor
	seg *segment
	idf float64
}

func (c *docCursor) Next() bool                            { return c.in.Next() }
func (c *docCursor) SkipTo(d model.DocID) bool             { return c.in.SkipTo(d) }
func (c *docCursor) Doc() model.DocID                      { return c.in.Doc() }
func (c *docCursor) Len() int                              { return c.in.Len() }
func (c *docCursor) BlockLast() model.DocID                { return c.in.BlockLast() }
func (c *docCursor) BlockLastAt(d model.DocID) model.DocID { return c.in.BlockLastAt(d) }

func (c *docCursor) Score() model.Score {
	return scoring.Score(c.seg.weight(uint32(c.in.Score()), c.in.Doc()), c.idf)
}

func (c *docCursor) MaxScore() model.Score { return boundOf(uint32(c.in.MaxScore()), c.idf) }
func (c *docCursor) BlockMax() model.Score { return boundOf(uint32(c.in.BlockMax()), c.idf) }
func (c *docCursor) BlockMaxAt(d model.DocID) model.Score {
	return boundOf(uint32(c.in.BlockMaxAt(d)), c.idf)
}

// scoreCursor maps a raw weight-ordered cursor to final scores; the
// monotone map keeps the order non-increasing.
type scoreCursor struct {
	in  postings.ScoreCursor
	seg *segment
	idf float64
	max model.Score
	pos int // 0 before start, 1 started, 2 exhausted
	cur model.Score
}

func (c *scoreCursor) Next() bool {
	if !c.in.Next() {
		c.pos = 2
		return false
	}
	c.pos = 1
	c.cur = scoring.Score(c.seg.weight(uint32(c.in.Score()), c.in.Doc()), c.idf)
	return true
}

func (c *scoreCursor) Doc() model.DocID   { return c.in.Doc() }
func (c *scoreCursor) Score() model.Score { return c.cur }
func (c *scoreCursor) Len() int           { return c.in.Len() }

func (c *scoreCursor) Bound() model.Score {
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
