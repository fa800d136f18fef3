// The epoch-bound postings.View over a memtable snapshot: raw-weight
// postings mapped to final scores with the epoch's global statistics.
// No simulated I/O is charged — the memtable is genuinely RAM-resident,
// like the in-memory tail of any LSM store.
package liveindex

import (
	"sort"

	"sparta/internal/model"
	"sparta/internal/postings"
)

// memView serves one memtable snapshot under one epoch's global
// (N, df) statistics.
type memView struct {
	seg *memSegment
	n   int     // epoch-global corpus size
	df  []int32 // epoch-global document frequencies
	gen int     // the index's next generation when the epoch was published
}

var _ postings.View = (*memView)(nil)

func (v *memView) idf(t model.TermID) float64 { return idfOf(v.n, int(v.df[t])) }

// NumDocs implements postings.View: the epoch-global corpus size, like
// a shard view presenting global document ids.
func (v *memView) NumDocs() int  { return v.n }
func (v *memView) NumTerms() int { return len(v.df) }

// DF implements postings.View: the segment-local document frequency
// (zero iff the segment's list is empty, which algorithms rely on);
// scoring always uses the epoch-global df via idf.
func (v *memView) DF(t model.TermID) int { return v.seg.localDF(t) }

func (v *memView) MaxScore(t model.TermID) model.Score {
	if v.seg.localDF(t) == 0 {
		return 0
	}
	return scoreOf(v.seg.term(t).wmax, v.idf(t))
}

func (v *memView) DocCursor(t model.TermID) postings.DocCursor {
	if v.seg.localDF(t) == 0 {
		return postings.NewSliceDocCursor(nil, nil, 0)
	}
	mt := v.seg.term(t)
	return &memDocCursor{
		list:   mt.post,
		blocks: mt.blocks,
		idf:    v.idf(t),
		max:    v.MaxScore(t),
		pos:    -1,
	}
}

func (v *memView) ScoreCursor(t model.TermID) postings.ScoreCursor {
	if v.seg.localDF(t) == 0 {
		return postings.NewSliceScoreCursor(nil, 0)
	}
	return &memScoreCursor{list: v.seg.term(t).impact, idf: v.idf(t), max: v.MaxScore(t), pos: -1}
}

// ScoreCursorShard implements postings.View: shard ranges are over the
// epoch-global document space, so the shared-nothing baseline's
// partitions line up across every segment of a set.
func (v *memView) ScoreCursorShard(t model.TermID, shard, nShards int) postings.ScoreCursor {
	if nShards <= 1 {
		return v.ScoreCursor(t)
	}
	if v.seg.localDF(t) == 0 {
		return postings.NewSliceScoreCursor(nil, 0)
	}
	lo, hi := postings.ShardRange(v.n, shard, nShards)
	list := make([]tfPost, 0, 8)
	for _, p := range v.seg.term(t).impact {
		if p.doc >= lo && p.doc < hi {
			list = append(list, p)
		}
	}
	var max model.Score
	if len(list) > 0 {
		max = scoreOf(list[0].w, v.idf(t))
	}
	return &memScoreCursor{list: list, idf: v.idf(t), max: max, pos: -1}
}

func (v *memView) RandomAccess(t model.TermID, d model.DocID) (model.Score, bool) {
	if v.seg.localDF(t) == 0 {
		return 0, false
	}
	list := v.seg.term(t).post
	i := sort.Search(len(list), func(i int) bool { return list[i].doc >= d })
	if i < len(list) && list[i].doc == d {
		return scoreOf(list[i].w, v.idf(t)), true
	}
	return 0, false
}

// memDocCursor walks a raw doc-ordered list mapping weights to scores.
type memDocCursor struct {
	list   []tfPost
	blocks []memBlock
	idf    float64
	max    model.Score
	pos    int
}

func (c *memDocCursor) Next() bool {
	c.pos++
	return c.pos < len(c.list)
}

func (c *memDocCursor) SkipTo(d model.DocID) bool {
	if c.pos >= len(c.list) {
		return false
	}
	i := max(c.pos, 0)
	if c.list[i].doc >= d {
		c.pos = i
		return true
	}
	j := i + sort.Search(len(c.list)-i, func(k int) bool { return c.list[i+k].doc >= d })
	c.pos = j
	return j < len(c.list)
}

func (c *memDocCursor) Doc() model.DocID      { return c.list[c.pos].doc }
func (c *memDocCursor) Score() model.Score    { return scoreOf(c.list[c.pos].w, c.idf) }
func (c *memDocCursor) MaxScore() model.Score { return c.max }
func (c *memDocCursor) BlockMax() model.Score {
	return scoreOf(c.blocks[c.pos/postings.BlockSize].wmax, c.idf)
}
func (c *memDocCursor) BlockLast() model.DocID {
	return c.blocks[c.pos/postings.BlockSize].last
}

func (c *memDocCursor) blockAt(d model.DocID) int {
	return sort.Search(len(c.blocks), func(i int) bool { return c.blocks[i].last >= d })
}

func (c *memDocCursor) BlockMaxAt(d model.DocID) model.Score {
	if i := c.blockAt(d); i < len(c.blocks) {
		return scoreOf(c.blocks[i].wmax, c.idf)
	}
	return 0
}

func (c *memDocCursor) BlockLastAt(d model.DocID) model.DocID {
	if i := c.blockAt(d); i < len(c.blocks) {
		return c.blocks[i].last
	}
	return model.DocID(^uint32(0))
}

func (c *memDocCursor) Len() int { return len(c.list) }

// memScoreCursor walks a w-ordered list; the monotone w ↦ score map
// keeps it score-non-increasing under any idf.
type memScoreCursor struct {
	list []tfPost
	idf  float64
	max  model.Score
	pos  int
}

func (c *memScoreCursor) Next() bool {
	c.pos++
	return c.pos < len(c.list)
}

func (c *memScoreCursor) Doc() model.DocID   { return c.list[c.pos].doc }
func (c *memScoreCursor) Score() model.Score { return scoreOf(c.list[c.pos].w, c.idf) }

func (c *memScoreCursor) Bound() model.Score {
	if c.pos < 0 {
		return c.max
	}
	if c.pos >= len(c.list) {
		return 0
	}
	return scoreOf(c.list[c.pos].w, c.idf)
}

func (c *memScoreCursor) Len() int { return len(c.list) }
