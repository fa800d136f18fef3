// The mutable in-memory segment: an append-only memtable the ingest
// batcher writes under the live index's lock, published to queries as
// immutable snapshots. Posting slices are shared between the memtable
// and its snapshots by immutable prefix: appends only ever write past
// the published length (or reallocate), so readers of a snapshot never
// observe a mutation. A term's lists are published as one immutable
// memTerm that every snapshot shares until the term changes again, so a
// snapshot costs one pointer per dictionary term plus the terms the
// appends since the last one touched.
package liveindex

import (
	"slices"

	"sparta/internal/corpus"
	"sparta/internal/model"
	"sparta/internal/postings"
)

// tfPost is one raw posting: global document id, term frequency, and
// the precomputed idf-independent weight component.
type tfPost struct {
	doc model.DocID
	tf  uint32
	w   float64
}

// memBlock is block-max metadata in raw-weight space; the epoch view
// maps it to a score bound with the global idf.
type memBlock struct {
	last model.DocID
	wmax float64
}

// memTerm is one term's lists as one snapshot publishes them: the
// doc-ordered postings, the same postings by weight, the block-max
// metadata and the largest weight. Nothing reachable from it is written
// after it is published.
type memTerm struct {
	post   []tfPost
	impact []tfPost
	blocks []memBlock
	wmax   float64
}

// noPostings stands for every term a segment has no postings for.
var noPostings = &memTerm{}

// memtable accumulates appended documents. All mutation happens under
// the owning Live's lock; queries only ever see snapshots.
type memtable struct {
	lo      model.DocID // global id of the memtable's first document
	docLens []int       // per local document
	post    [][]tfPost  // per term, doc-ordered (documents arrive in id order)
	dirty   map[model.TermID]struct{}

	// terms holds each term's lists as last published (nil: none yet),
	// rebuilt for dirty terms at snapshot time into a fresh memTerm, so
	// snapshots taken earlier keep their consistent versions.
	terms []*memTerm

	bytes int64
}

func newMemtable(lo model.DocID) *memtable {
	return &memtable{lo: lo, dirty: make(map[model.TermID]struct{})}
}

func (m *memtable) docs() int { return len(m.docLens) }

// appendDoc indexes one document. doc must be the next global id
// (m.lo + m.docs()); the bag must not repeat terms.
func (m *memtable) appendDoc(doc model.DocID, bag []corpus.TermCount) {
	length := 0
	for _, tc := range bag {
		length += int(tc.Count)
	}
	m.docLens = append(m.docLens, length)
	for _, tc := range bag {
		for int(tc.Term) >= len(m.post) {
			m.post = append(m.post, nil)
			m.terms = append(m.terms, nil)
		}
		m.post[tc.Term] = append(m.post[tc.Term], tfPost{
			doc: doc, tf: tc.Count, w: rawWeight(tc.Count, length),
		})
		m.dirty[tc.Term] = struct{}{}
		m.bytes += 24 // posting in both orders + block-meta amortized
	}
	m.bytes += 8 // docLens entry
}

// memSegment is an immutable snapshot of the memtable: the in-memory
// segment a query epoch serves. Slices are shared with the memtable by
// immutable prefix.
type memSegment struct {
	lo, hi  model.DocID
	docLens []int
	terms   []*memTerm // per dictionary term; nil where the segment has no postings
	bytes   int64
}

// term returns t's lists; a term the segment has no postings for, or
// that joined the dictionary after the snapshot, has empty ones.
func (s *memSegment) term(t model.TermID) *memTerm {
	if int(t) >= len(s.terms) || s.terms[t] == nil {
		return noPostings
	}
	return s.terms[t]
}

// snapshot rebuilds the derived structures of dirty terms and freezes
// the current contents. nTerms is the live dictionary size; terms the
// memtable has no postings for appear as empty lists.
func (m *memtable) snapshot(nTerms int) *memSegment {
	for t := range m.dirty {
		m.terms[t] = newMemTerm(m.terms[t], m.post[t])
	}
	clear(m.dirty)

	seg := &memSegment{
		lo:      m.lo,
		hi:      m.lo + model.DocID(len(m.docLens)),
		docLens: m.docLens[:len(m.docLens):len(m.docLens)],
		terms:   make([]*memTerm, nTerms),
		bytes:   m.bytes,
	}
	copy(seg.terms, m.terms)
	return seg
}

// newMemTerm derives the published form of a non-empty doc-ordered
// list. prev, when not nil, is the form published for a prefix of list:
// the new postings are merged into its impact order and its full blocks
// are kept, so an append costs a term a copy, not a sort.
func newMemTerm(prev *memTerm, list []tfPost) *memTerm {
	if prev == nil {
		prev = noPostings
	}
	old := prev.impact
	added := slices.Clone(list[len(old):])
	slices.SortFunc(added, cmpImpact)
	imp := make([]tfPost, 0, len(list))
	for _, p := range added {
		i, _ := slices.BinarySearchFunc(old, p, cmpImpact)
		imp = append(append(imp, old[:i]...), p)
		old = old[i:]
	}
	imp = append(imp, old...)

	full := len(prev.post) / postings.BlockSize // prev's blocks no new posting joins
	blocks := make([]memBlock, full, (len(list)+postings.BlockSize-1)/postings.BlockSize)
	copy(blocks, prev.blocks)
	for start := full * postings.BlockSize; start < len(list); start += postings.BlockSize {
		block := list[start:min(start+postings.BlockSize, len(list))]
		meta := memBlock{last: block[len(block)-1].doc}
		for _, p := range block {
			meta.wmax = max(meta.wmax, p.w)
		}
		blocks = append(blocks, meta)
	}
	return &memTerm{post: list, impact: imp, blocks: blocks, wmax: imp[0].w}
}

// cmpImpact orders postings by weight descending, document id ascending
// on ties — the impact order every segment form shares.
func cmpImpact(a, b tfPost) int {
	switch {
	case a.w > b.w:
		return -1
	case a.w < b.w:
		return 1
	case a.doc < b.doc:
		return -1
	case a.doc > b.doc:
		return 1
	}
	return 0
}

func (s *memSegment) docs() int { return len(s.docLens) }

func (s *memSegment) localDF(t model.TermID) int { return len(s.term(t).post) }
