// index.Segment implementation: a build-once on-disk index is one
// immutable segment covering the whole corpus. The live index
// (internal/liveindex) opens many of these — one per flushed or
// compacted memtable, each over its own simulated store — and serves
// them as a segment set.
package diskindex

import (
	"sparta/internal/index"
	"sparta/internal/model"
)

var _ index.Segment = (*Index)(nil)

// SegmentDocs implements index.Segment.
func (x *Index) SegmentDocs() int { return x.NumDocs() }

// SegmentRange implements index.Segment.
func (x *Index) SegmentRange() (lo, hi model.DocID) { return 0, model.DocID(x.NumDocs()) }

// SegmentBytes implements index.Segment: the posting file's size, the
// storage the simulated disk actually charges for.
func (x *Index) SegmentBytes() int64 { return x.store.FileSize(x.postFile) }

// SegmentGeneration implements index.Segment.
func (x *Index) SegmentGeneration() int { return 0 }
