// Document-range partitioning, the one partition form: the sharded
// serving layer (internal/shardserve) serves one part per shard, and
// sNRA (internal/algos/snra) runs one NRA per part. PartitionRange
// carves one global index into a part that holds only the postings of
// a contiguous document range, while keeping the *global* document ids
// and the *global* tf-idf scores. Rebuilding a part from its sub-corpus
// instead would change every idf (document frequencies are
// corpus-wide), so per-part results could never merge byte-identically
// with the single-index reference; filtering the already-scored lists
// sidesteps that entirely — a part is just a projection of the global
// index.

package index

import (
	"sort"

	"sparta/internal/model"
	"sparta/internal/postings"
)

// PartitionRange returns the shard of x covering documents [lo, hi):
// every term keeps only its postings in the range, with DF and Max
// recomputed over the kept sublist and block-max metadata rebuilt.
// NumDocs, term ids, the dictionary, doc ids and scores are all the
// global ones, so a shard's results are directly comparable (and
// mergeable) with any other shard's and with the full index's.
func (x *Index) PartitionRange(lo, hi model.DocID) *Index {
	nTerms := len(x.terms)
	s := &Index{
		numDocs: x.numDocs,
		terms:   make([]TermStats, nTerms),
		dict:    x.dict, // immutable after Build; shared read-only
		post:    make([][]model.Posting, nTerms),
		impact:  make([][]model.Posting, nTerms),
		blocks:  make([][]postings.BlockMeta, nTerms),
	}
	for t := 0; t < nTerms; t++ {
		full := x.post[t]
		// Doc-ordered list: the range is a contiguous slice.
		i := sort.Search(len(full), func(i int) bool { return full[i].Doc >= lo })
		j := sort.Search(len(full), func(j int) bool { return full[j].Doc >= hi })
		sub := make([]model.Posting, j-i)
		copy(sub, full[i:j])
		var max model.Score
		for _, p := range sub {
			if p.Score > max {
				max = p.Score
			}
		}
		// Impact-ordered list: filter preserves the global impact order.
		imp := make([]model.Posting, 0, len(sub))
		for _, p := range x.impact[t] {
			if p.Doc >= lo && p.Doc < hi {
				imp = append(imp, p)
			}
		}
		s.terms[t] = TermStats{Name: x.terms[t].Name, DF: len(sub), Max: max}
		s.post[t] = sub
		s.impact[t] = imp
		if len(sub) > 0 {
			s.blocks[t] = postings.BuildBlocks(sub)
		}
	}
	return s
}

// Partition splits x into p document-range parts over the contiguous
// near-equal ranges of postings.ShardRange.
func (x *Index) Partition(p int) []*Index {
	if p <= 1 {
		return []*Index{x}
	}
	out := make([]*Index, p)
	for s := 0; s < p; s++ {
		lo, hi := postings.ShardRange(x.numDocs, s, p)
		out[s] = x.PartitionRange(lo, hi)
	}
	return out
}
