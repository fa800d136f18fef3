package diskindex

import (
	"fmt"
	"math"

	"sparta/internal/codec"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
)

// FromIndex converts an in-memory index directly into an opened
// disk-modeled index in the paper's uncompressed layout (codec.Raw),
// skipping the filesystem round trip.
func FromIndex(x *index.Index, cfg iomodel.Config) (*Index, error) {
	return FromIndexWith(x, cfg, codec.Raw)
}

// FromIndexWith is FromIndex with the block codec named.
func FromIndexWith(x *index.Index, cfg iomodel.Config, id codec.ID) (*Index, error) {
	return FromIndexOn(x, iomodel.NewStore(cfg), id)
}

// FromIndexOn is FromIndexWith onto an existing store: x's postings
// become one more file of store, read through its page cache and
// counted in its statistics beside the files already there. The parts
// of one partition set share a disk this way. Build before the store
// serves queries: adding a file does not synchronize with readers.
func FromIndexOn(x *index.Index, store *iomodel.Store, id codec.ID) (*Index, error) {
	d, region, err := build(x, id)
	if err != nil {
		return nil, err
	}
	return newIndex(d, region, store), nil
}

// build cuts every posting region of x into blocks, appends their
// encodings to one region in directory order — per term: doc blocks,
// then impact blocks — and records the directory. Block maxima and last
// ids are x's own (x.Blocks), not recomputed from the score field: an
// index whose payload is not the score (the live index's frozen
// segments store term frequencies and bound them by a weight) keeps the
// bounds it was given.
func build(x *index.Index, id codec.ID) (*directory, []byte, error) {
	if !id.Valid() {
		return nil, nil, fmt.Errorf("diskindex: unknown codec id %d", uint8(id))
	}
	nTerms, total := x.NumTerms(), x.TotalPostings()
	d := &directory{
		manifest: Manifest{
			Version: FormatVersion, NumDocs: x.NumDocs(), NumTerms: nTerms,
			Codec: id, TotalPostings: total,
		},
		terms: make([]termMeta, nTerms),
	}
	// Raw's size is exact; Group lands near half of it (DESIGN.md §4i).
	size := total * codec.RawPostingBytes * 2
	if id != codec.Raw {
		size /= 2
	}
	region := make([]byte, 0, size)

	// appendBlocks encodes list in blocks — doc-ordered ones against the
	// previous block's last doc id, impact-ordered ones against its last
	// score, the first against ref — and returns the directory entries.
	appendBlocks := func(dst []blockMeta, list []model.Posting, doc bool, ref uint32) ([]blockMeta, error) {
		for start := 0; start < len(list); start += postings.BlockSize {
			block := list[start:min(start+postings.BlockSize, len(list))]
			off, last := len(region), block[len(block)-1]
			var err error
			if doc {
				region, err = codec.AppendDoc(region, id, model.DocID(ref), block)
			} else {
				region, err = codec.AppendImpact(region, id, model.Score(ref), block)
			}
			if err != nil {
				return nil, err
			}
			dst = append(dst, blockMeta{
				off: int64(off), byteLen: int32(len(region) - off),
				count: int32(len(block)), ref: ref,
			})
			if ref = uint32(last.Score); doc {
				ref = uint32(last.Doc)
			}
		}
		return dst, nil
	}

	for t := range d.terms {
		term := model.TermID(t)
		docList, impList, dir := x.Postings(term), x.Impact(term), x.Blocks(term)
		tm := termMeta{
			df: int32(len(docList)), max: x.MaxScore(term),
			docStart: int32(len(d.docMeta)), impStart: int32(len(d.impMeta)),
		}
		if tm.max < 0 || tm.max > math.MaxUint32 {
			return nil, nil, fmt.Errorf("diskindex: term %d max score %d does not fit u32", t, tm.max)
		}
		if len(dir) != int(nBlocks(tm.df)) || len(impList) != len(docList) {
			return nil, nil, fmt.Errorf("diskindex: term %d has %d postings, %d in impact order and %d block bounds",
				t, len(docList), len(impList), len(dir))
		}
		var err error
		if d.docMeta, err = appendBlocks(d.docMeta, docList, true, 0); err != nil {
			return nil, nil, fmt.Errorf("diskindex: term %d doc blocks: %w", t, err)
		}
		d.docDir = append(d.docDir, dir...)
		if d.impMeta, err = appendBlocks(d.impMeta, impList, false, uint32(tm.max)); err != nil {
			return nil, nil, fmt.Errorf("diskindex: term %d impact blocks: %w", t, err)
		}
		d.terms[t] = tm
	}
	return d, region, nil
}
