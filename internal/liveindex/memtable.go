// The mutable in-memory segment: an append-only memtable the ingest
// batcher writes under the live index's lock, published to queries as
// immutable snapshots. Posting slices are shared between the memtable
// and its snapshots by immutable prefix: appends only ever write past
// the published length (or reallocate), so readers of a snapshot never
// observe a mutation. A term's lists are published as one immutable
// memTerm that every snapshot shares until the term changes again, so a
// snapshot costs one pointer per dictionary term plus the terms the
// appends since the last one touched.
//
// The lists are a frozen segment's payload (frozen.go): the term
// frequency in each posting's Score, the impact order by weight, and
// quantized maxima. A snapshot is served by the same view as a frozen
// segment, and a flush writes its lists as they are.
package liveindex

import (
	"context"
	"slices"
	"sort"
	"time"
	"unsafe"

	"sparta/internal/corpus"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/scoring"
)

// memTerm is one term's lists as one snapshot publishes them: the
// doc-ordered postings, the same postings by weight, the block-max
// metadata and the term's maximum, both quantized (quantUp). Nothing
// reachable from it is written after it is published.
type memTerm struct {
	post   []model.Posting
	impact []model.Posting
	blocks []postings.BlockMeta
	max    model.Score
}

// noPostings stands for every term a segment has no postings for.
var noPostings = &memTerm{}

// The bytes a memtable holds per posting (doc and impact order), per
// block of a term's list, and per document (length and its root).
const (
	postingBytes = 2 * int64(unsafe.Sizeof(model.Posting{}))
	blockBytes   = int64(unsafe.Sizeof(postings.BlockMeta{}))
	memDocBytes  = int64(unsafe.Sizeof(uint32(0)) + unsafe.Sizeof(float64(0)))
)

// memtable accumulates appended documents. All mutation happens under
// the owning Live's lock; queries only ever see snapshots.
type memtable struct {
	lo      model.DocID       // global id of the memtable's first document
	docLens []uint32          // per local document
	sqrtLen []float64         // √docLens, beside them (sqrtLens)
	post    [][]model.Posting // per term, doc-ordered (documents arrive in id order)
	dirty   map[model.TermID]struct{}

	// terms holds each term's lists as last published (nil: none yet),
	// rebuilt for dirty terms at snapshot time into a fresh memTerm, so
	// snapshots taken earlier keep their consistent versions.
	terms []*memTerm

	bytes int64 // what the lists above hold, as a snapshot publishes them
}

func newMemtable(lo model.DocID) *memtable {
	return &memtable{lo: lo, dirty: make(map[model.TermID]struct{})}
}

func (m *memtable) docs() int { return len(m.docLens) }

// appendDoc indexes one document. doc must be the next global id
// (m.lo + m.docs()); the bag must not repeat terms.
func (m *memtable) appendDoc(doc model.DocID, bag []corpus.TermCount) {
	var length uint32
	for _, tc := range bag {
		length += tc.Count
	}
	m.docLens = append(m.docLens, length)
	m.sqrtLen = append(m.sqrtLen, scoring.SqrtLen(int(length)))
	m.bytes += memDocBytes
	for _, tc := range bag {
		for int(tc.Term) >= len(m.post) {
			m.post = append(m.post, nil)
			m.terms = append(m.terms, nil)
		}
		if len(m.post[tc.Term])%postings.BlockSize == 0 {
			m.bytes += blockBytes
		}
		m.post[tc.Term] = append(m.post[tc.Term], model.Posting{Doc: doc, Score: model.Score(tc.Count)})
		m.dirty[tc.Term] = struct{}{}
		m.bytes += postingBytes
	}
}

// memSegment is an immutable snapshot of the memtable: the in-memory
// segment a query epoch serves. Slices are shared with the memtable by
// immutable prefix. It is the raw postings.View a segment view reads,
// like a frozen segment's diskindex.Index: Score is the term frequency,
// maxima are quantized weights.
type memSegment struct {
	segment
	terms []*memTerm // per dictionary term; nil where the segment has no postings
}

var _ postings.View = (*memSegment)(nil)

// term returns t's lists; a term the segment has no postings for, or
// that joined the dictionary after the snapshot, has empty ones.
func (s *memSegment) term(t model.TermID) *memTerm {
	if int(t) >= len(s.terms) || s.terms[t] == nil {
		return noPostings
	}
	return s.terms[t]
}

// snapshot rebuilds the derived structures of dirty terms and freezes
// the current contents as generation gen. nTerms is the live dictionary
// size; terms the memtable has no postings for appear as empty lists.
func (m *memtable) snapshot(nTerms, gen int) *memSegment {
	n := len(m.docLens)
	seg := &memSegment{
		segment: segment{
			kind: "memtable", gen: gen, lo: m.lo, hi: m.lo + model.DocID(n),
			docLens: m.docLens[:n:n], sqrtLen: m.sqrtLen[:n:n], bytes: m.bytes,
		},
		terms: make([]*memTerm, nTerms),
	}
	for t := range m.dirty {
		m.terms[t] = newMemTerm(m.terms[t], m.post[t], &seg.segment)
	}
	clear(m.dirty)
	copy(seg.terms, m.terms)
	return seg
}

// newMemTerm derives the published form of a non-empty doc-ordered
// list, weighing its postings with seg's tables. prev, when not nil, is
// the form published for a prefix of list: the new postings are merged
// into its impact order and its full blocks are kept, so an append
// costs a term a copy, not a sort.
func newMemTerm(prev *memTerm, list []model.Posting, seg *segment) *memTerm {
	if prev == nil {
		prev = noPostings
	}
	// By weight descending, document id ascending on ties: the impact
	// order of every segment.
	cmp := func(a, b model.Posting) int {
		wa, wb := seg.weight(uint32(a.Score), a.Doc), seg.weight(uint32(b.Score), b.Doc)
		switch {
		case wa > wb:
			return -1
		case wa < wb:
			return 1
		case a.Doc < b.Doc:
			return -1
		case a.Doc > b.Doc:
			return 1
		}
		return 0
	}
	old := prev.impact
	added := slices.Clone(list[len(old):])
	slices.SortFunc(added, cmp)
	imp := make([]model.Posting, 0, len(list))
	for _, p := range added {
		i, _ := slices.BinarySearchFunc(old, p, cmp)
		imp = append(append(imp, old[:i]...), p)
		old = old[i:]
	}
	imp = append(imp, old...)

	full := len(prev.post) / postings.BlockSize // prev's blocks no new posting joins
	blocks := make([]postings.BlockMeta, full, (len(list)+postings.BlockSize-1)/postings.BlockSize)
	copy(blocks, prev.blocks)
	for start := full * postings.BlockSize; start < len(list); start += postings.BlockSize {
		block := list[start:min(start+postings.BlockSize, len(list))]
		var wmax float64
		for _, p := range block {
			wmax = max(wmax, seg.weight(uint32(p.Score), p.Doc))
		}
		blocks = append(blocks, postings.BlockMeta{Last: block[len(block)-1].Doc, Max: model.Score(quantUp(wmax))})
	}
	top := imp[0]
	return &memTerm{post: list, impact: imp, blocks: blocks,
		max: model.Score(quantUp(seg.weight(uint32(top.Score), top.Doc)))}
}

// NumDocs implements postings.View: the end of the segment's global id
// range, which is what a frozen segment's payload records.
func (s *memSegment) NumDocs() int  { return int(s.hi) }
func (s *memSegment) NumTerms() int { return len(s.terms) }

func (s *memSegment) DF(t model.TermID) int               { return len(s.term(t).post) }
func (s *memSegment) MaxScore(t model.TermID) model.Score { return s.term(t).max }

func (s *memSegment) DocCursor(t model.TermID) postings.DocCursor {
	mt := s.term(t)
	return postings.NewSliceDocCursor(mt.post, mt.blocks, mt.max)
}

func (s *memSegment) ScoreCursor(t model.TermID) postings.ScoreCursor {
	mt := s.term(t)
	return postings.NewSliceScoreCursor(mt.impact, mt.max)
}

func (s *memSegment) RandomAccess(t model.TermID, d model.DocID) (model.Score, bool) {
	list := s.term(t).post
	i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= d })
	if i < len(list) && list[i].Doc == d {
		return list[i].Score, true
	}
	return 0, false
}

// Resident implements postings.View: the memtable is in memory.
func (s *memSegment) Resident(model.TermID, model.DocID) bool { return true }

// BindExec implements postings.View: the memtable charges nothing, so
// the snapshot is its own binding, with nothing to settle.
func (s *memSegment) BindExec(context.Context, func(time.Duration), func(), func(bool)) (postings.View, func()) {
	return s, nil
}
