// Prebuilt indexes: an Index assembled from per-term lists its caller
// has already prepared, for the live index's flush path
// (internal/liveindex), which freezes a raw-frequency memtable into the
// on-disk block format through diskindex.WriteDir.

package index

import (
	"sparta/internal/model"
	"sparta/internal/postings"
)

// NewPrebuilt assembles an Index directly from already-prepared
// per-term lists, bypassing the Builder's tf-idf scoring. A frozen live
// segment stores the term frequency in each posting's Score field
// (final scores depend on corpus-global statistics that keep moving
// under ingest, so they are computed at read time), its impact lists
// pre-sorted by the idf-independent weight component, and quantized
// weight upper bounds in the dictionary / block-max Max fields.
//
// All slices are retained, not copied: post must be doc-ordered,
// impact must be non-increasing under the caller's score semantics,
// and blocks must describe post. Term names may be empty when they
// don't matter (segment payloads resolve names through the live
// dictionary).
func NewPrebuilt(numDocs int, terms []TermStats, post, impact [][]model.Posting, blocks [][]postings.BlockMeta) *Index {
	return &Index{
		numDocs: numDocs,
		terms:   terms,
		post:    post,
		impact:  impact,
		blocks:  blocks,
	}
}
