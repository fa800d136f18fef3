// Package index builds and holds the in-memory inverted index: a
// dictionary with per-term statistics and, per term, both traversal
// orders the retrieval algorithms need — a document-ordered posting
// list with block-max metadata and a score-ordered ("impact") posting
// list. It also answers the random-access lookups of the RA algorithm
// family via binary search on the document-ordered list, which plays
// the role of the paper's secondary by-document index (§3.2).
//
// The paper pre-builds its indexes offline with Lucene doing the text
// preprocessing (§5.1); here the Builder covers both paths: FromCorpus
// indexes a synthetic bag-of-words corpus, and Add/AddTokens index raw
// or tokenized text.
package index

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"sparta/internal/corpus"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/scoring"
	"sparta/internal/text"
)

// TermStats holds the per-term dictionary entry.
type TermStats struct {
	// Name is the term's string form; synthetic corpora use "t<i>".
	Name string
	// DF is the document frequency (posting-list length).
	DF int
	// Max is the highest term score in the posting list.
	Max model.Score
}

// Index is an immutable in-memory inverted index. It implements
// postings.View. All methods are safe for concurrent use.
type Index struct {
	numDocs int
	terms   []TermStats
	dict    map[string]model.TermID
	post    [][]model.Posting // doc-ordered, per term
	impact  [][]model.Posting // score-ordered, per term
	blocks  [][]postings.BlockMeta

	shardMu    sync.Mutex
	shardCache map[shardKey][]model.Posting
}

type shardKey struct {
	term          model.TermID
	shard, shards int
}

var _ postings.View = (*Index)(nil)

// NumDocs implements postings.View.
func (x *Index) NumDocs() int { return x.numDocs }

// NumTerms implements postings.View.
func (x *Index) NumTerms() int { return len(x.terms) }

// DF implements postings.View.
func (x *Index) DF(t model.TermID) int { return x.terms[t].DF }

// MaxScore implements postings.View.
func (x *Index) MaxScore(t model.TermID) model.Score { return x.terms[t].Max }

// Term returns the dictionary entry of t.
func (x *Index) Term(t model.TermID) TermStats { return x.terms[t] }

// Lookup resolves a term string to its id.
func (x *Index) Lookup(name string) (model.TermID, bool) {
	t, ok := x.dict[name]
	return t, ok
}

// Postings returns the doc-ordered posting list of t. The caller must
// not modify it.
func (x *Index) Postings(t model.TermID) []model.Posting { return x.post[t] }

// Impact returns the score-ordered posting list of t. The caller must
// not modify it.
func (x *Index) Impact(t model.TermID) []model.Posting { return x.impact[t] }

// Blocks returns t's block-max metadata.
func (x *Index) Blocks(t model.TermID) []postings.BlockMeta { return x.blocks[t] }

// DocCursor implements postings.View.
func (x *Index) DocCursor(t model.TermID) postings.DocCursor {
	return postings.NewSliceDocCursor(x.post[t], x.blocks[t], x.terms[t].Max)
}

// ScoreCursor implements postings.View.
func (x *Index) ScoreCursor(t model.TermID) postings.ScoreCursor {
	return postings.NewSliceScoreCursor(x.impact[t], x.terms[t].Max)
}

// ScoreCursorShard implements postings.View. Shard lists are built on
// first use and cached; a pre-partitioned on-disk index (diskindex)
// stores them explicitly instead.
func (x *Index) ScoreCursorShard(t model.TermID, shard, nShards int) postings.ScoreCursor {
	if nShards <= 1 {
		return x.ScoreCursor(t)
	}
	key := shardKey{term: t, shard: shard, shards: nShards}
	x.shardMu.Lock()
	if x.shardCache == nil {
		x.shardCache = make(map[shardKey][]model.Posting)
	}
	list, ok := x.shardCache[key]
	x.shardMu.Unlock()
	if !ok {
		lo, hi := postings.ShardRange(x.numDocs, shard, nShards)
		list = make([]model.Posting, 0, len(x.impact[t])/nShards+1)
		for _, p := range x.impact[t] {
			if p.Doc >= lo && p.Doc < hi {
				list = append(list, p)
			}
		}
		x.shardMu.Lock()
		x.shardCache[key] = list
		x.shardMu.Unlock()
	}
	return postings.NewSliceScoreCursor(list, 0)
}

// Resident implements postings.View: every posting is in memory.
func (x *Index) Resident(model.TermID, model.DocID) bool { return true }

// BindExec implements postings.View: reads charge nothing, so the index
// is its own binding, with nothing to settle.
func (x *Index) BindExec(context.Context, func(time.Duration), func(), func(bool)) (postings.View, func()) {
	return x, nil
}

// RandomAccess implements postings.View via binary search on the
// doc-ordered list.
func (x *Index) RandomAccess(t model.TermID, d model.DocID) (model.Score, bool) {
	list := x.post[t]
	i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= d })
	if i < len(list) && list[i].Doc == d {
		return list[i].Score, true
	}
	return 0, false
}

// TotalPostings returns the number of postings across all terms.
func (x *Index) TotalPostings() int64 {
	var n int64
	for _, p := range x.post {
		n += int64(len(p))
	}
	return n
}

// Builder accumulates documents and produces an Index.
type Builder struct {
	analyzer *text.Analyzer
	dict     map[string]model.TermID
	names    []string
	// raw per-term postings carrying tf; scored at Build time once the
	// corpus-wide statistics (N, df) are known.
	tfs     [][]tfPosting
	docLens []int
	quality []float64 // per-document static prior (1.0 = neutral)
}

type tfPosting struct {
	doc model.DocID
	tf  uint32
}

// NewBuilder creates an empty builder using the default analyzer for
// the text path.
func NewBuilder() *Builder {
	return &Builder{
		analyzer: text.NewAnalyzer(),
		dict:     make(map[string]model.TermID),
	}
}

// Add tokenizes and indexes one raw-text document, returning its id.
func (b *Builder) Add(docText string) model.DocID {
	return b.AddTokens(b.analyzer.Tokenize(docText))
}

// AddTokens indexes one pre-tokenized document, returning its id.
func (b *Builder) AddTokens(tokens []string) model.DocID {
	counts := make(map[string]uint32, len(tokens))
	for _, tok := range tokens {
		counts[tok]++
	}
	// Sort term names for deterministic term-id assignment order.
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	doc := model.DocID(len(b.docLens))
	b.docLens = append(b.docLens, len(tokens))
	b.quality = append(b.quality, 1)
	for _, name := range names {
		t, ok := b.dict[name]
		if !ok {
			t = model.TermID(len(b.names))
			b.dict[name] = t
			b.names = append(b.names, name)
			b.tfs = append(b.tfs, nil)
		}
		b.tfs[t] = append(b.tfs[t], tfPosting{doc: doc, tf: counts[name]})
	}
	return doc
}

// AddBag indexes one document given as a (term, count) bag with
// already-assigned term ids; ids must be dense. Used by FromCorpus.
func (b *Builder) AddBag(bag []corpus.TermCount) model.DocID {
	return b.AddBagQuality(bag, 1)
}

// AddBagQuality indexes a bag with a static document-quality prior:
// every term score of the document is multiplied by quality at Build
// time, the way web rankers fold document priors (PageRank and
// friends) into the indexed impact scores.
func (b *Builder) AddBagQuality(bag []corpus.TermCount, quality float64) model.DocID {
	doc := model.DocID(len(b.docLens))
	length := 0
	for _, tc := range bag {
		length += int(tc.Count)
		for int(tc.Term) >= len(b.tfs) {
			b.tfs = append(b.tfs, nil)
			b.names = append(b.names, fmt.Sprintf("t%d", len(b.names)))
		}
		b.tfs[tc.Term] = append(b.tfs[tc.Term], tfPosting{doc: doc, tf: tc.Count})
	}
	b.docLens = append(b.docLens, length)
	b.quality = append(b.quality, quality)
	return doc
}

// Build freezes the builder into an immutable Index, computing tf-idf
// scores, impact lists, and block-max metadata.
func (b *Builder) Build() *Index {
	numDocs := len(b.docLens)
	sc := scoring.New(numDocs)
	nTerms := len(b.tfs)
	x := &Index{
		numDocs: numDocs,
		terms:   make([]TermStats, nTerms),
		dict:    b.dict,
		post:    make([][]model.Posting, nTerms),
		impact:  make([][]model.Posting, nTerms),
		blocks:  make([][]postings.BlockMeta, nTerms),
	}
	if x.dict == nil {
		x.dict = make(map[string]model.TermID, nTerms)
		for t, name := range b.names {
			x.dict[name] = model.TermID(t)
		}
	}
	for t := 0; t < nTerms; t++ {
		raw := b.tfs[t]
		df := len(raw)
		post := make([]model.Posting, df)
		var max model.Score
		for i, tp := range raw {
			s := sc.TermScore(tp.tf, b.docLens[tp.doc], df)
			if q := b.quality[tp.doc]; q != 1 {
				s = model.Score(float64(s) * q)
				if s < 1 {
					s = 1 // postings always carry a positive score
				}
			}
			post[i] = model.Posting{Doc: tp.doc, Score: s}
			if s > max {
				max = s
			}
		}
		// Documents are added in increasing id order, so post is
		// already doc-ordered.
		impact := make([]model.Posting, df)
		copy(impact, post)
		slices.SortFunc(impact, func(a, b model.Posting) int {
			switch {
			case a.Score > b.Score:
				return -1
			case a.Score < b.Score:
				return 1
			case a.Doc < b.Doc:
				return -1
			case a.Doc > b.Doc:
				return 1
			}
			return 0
		})
		name := ""
		if t < len(b.names) {
			name = b.names[t]
		}
		x.terms[t] = TermStats{Name: name, DF: df, Max: max}
		x.post[t] = post
		x.impact[t] = impact
		if df > 0 {
			x.blocks[t] = postings.BuildBlocks(post)
		}
	}
	return x
}

// FromCorpus builds the index of a synthetic corpus. Documents are
// materialized in parallel-safe deterministic fashion but indexed in id
// order, matching the offline pre-build of §5.1.
func FromCorpus(c *corpus.Corpus) *Index {
	b := NewBuilder()
	for d := 0; d < c.NumDocs(); d++ {
		id := model.DocID(d)
		b.AddBagQuality(c.Doc(id), c.DocQuality(id))
	}
	return b.Build()
}
