// Segment abstraction: the index core's unit of composition. A
// segment is an immutable, queryable piece of a corpus covering a
// contiguous global document-id range. The monolithic build-once
// artifacts (this package's Index and diskindex.Index) are each one
// segment spanning the whole corpus; the live index
// (internal/liveindex) composes many — frozen on-disk segments plus an
// in-memory memtable — and queries merge across them exactly the way
// sharded serving merges across shards (DESIGN.md §4e).
package index

import (
	"sparta/internal/model"
	"sparta/internal/postings"
)

// Segment is an immutable, searchable slice of a corpus: a full
// postings.View over a contiguous global document-id range. Document
// ids inside a segment are global — cursors yield ids in [lo, hi) —
// so per-segment top-k lists merge with topk.MergeTopK without any id
// translation, the same equivalence that makes sharded serving exact.
type Segment interface {
	postings.View

	// SegmentDocs is the number of documents the segment holds.
	SegmentDocs() int
	// SegmentRange is the segment's half-open global document-id range
	// [lo, hi). Ranges of a segment set are disjoint and contiguous.
	SegmentRange() (lo, hi model.DocID)
	// SegmentBytes is the segment's storage footprint (posting bytes
	// for on-disk segments, approximate resident bytes in memory).
	SegmentBytes() int64
	// SegmentGeneration orders segments by creation: 0 for a build-once
	// index, increasing for live flushes and compactions (a compacted
	// segment is newer than every input it merged).
	SegmentGeneration() int
}

var _ Segment = (*Index)(nil)

// SegmentDocs implements Segment: a build-once index is one segment
// holding the whole corpus.
func (x *Index) SegmentDocs() int { return x.numDocs }

// SegmentRange implements Segment.
func (x *Index) SegmentRange() (lo, hi model.DocID) { return 0, model.DocID(x.numDocs) }

// SegmentBytes implements Segment: both posting orders at 8 bytes per
// entry, the in-memory layout's dominant term.
func (x *Index) SegmentBytes() int64 { return x.TotalPostings() * 16 }

// SegmentGeneration implements Segment.
func (x *Index) SegmentGeneration() int { return 0 }

// NewPrebuilt assembles an Index directly from already-prepared
// per-term lists, bypassing the Builder's tf-idf scoring. This is the
// hook the live index's flush path uses to freeze a raw-frequency
// memtable into the on-disk block format: a frozen segment stores the
// term frequency in each posting's Score field (final scores depend on
// corpus-global statistics that keep moving under ingest, so they are
// computed at read time), its impact lists pre-sorted by the
// idf-independent weight component, and quantized weight upper bounds
// in the dictionary / block-max Max fields.
//
// All slices are retained, not copied: post must be doc-ordered,
// impact must be non-increasing under the caller's score semantics,
// and blocks must describe post. dict may be nil when term names don't
// matter (segment payloads resolve names through the live dictionary).
func NewPrebuilt(numDocs int, terms []TermStats, post, impact [][]model.Posting, blocks [][]postings.BlockMeta) *Index {
	return &Index{
		numDocs: numDocs,
		terms:   terms,
		post:    post,
		impact:  impact,
		blocks:  blocks,
	}
}
