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
// skipping the filesystem round trip. shards is the sNRA pre-partition
// count (0 means DefaultShards).
func FromIndex(x *index.Index, shards int, cfg iomodel.Config) (*Index, error) {
	return FromIndexWith(x, shards, cfg, codec.Raw)
}

// FromIndexWith is FromIndex with the block codec named.
func FromIndexWith(x *index.Index, shards int, cfg iomodel.Config, id codec.ID) (*Index, error) {
	d, region, err := build(x, shards, id)
	if err != nil {
		return nil, err
	}
	return newIndex(d, region, cfg), nil
}

// build cuts every posting region of x into blocks, appends their
// encodings to one region in directory order — per term: doc blocks,
// impact blocks, then each shard sublist's blocks — and records the
// directory. Block maxima and last ids are x's own (x.Blocks), not
// recomputed from the score field: an index whose payload is not the
// score (the live index's frozen segments store term frequencies and
// bound them by a weight) keeps the bounds it was given.
func build(x *index.Index, shards int, id codec.ID) (*directory, []byte, error) {
	if shards <= 0 {
		shards = DefaultShards
	}
	if !id.Valid() {
		return nil, nil, fmt.Errorf("diskindex: unknown codec id %d", uint8(id))
	}
	nTerms, total := x.NumTerms(), x.TotalPostings()
	d := &directory{
		manifest: Manifest{
			Version: FormatVersion, NumDocs: x.NumDocs(), NumTerms: nTerms,
			Shards: shards, Codec: id, TotalPostings: total,
		},
		terms:     make([]termMeta, nTerms),
		shardRecs: make([]shardRec, 0, nTerms*shards),
	}
	// Raw's size is exact; Group lands near half of it (DESIGN.md §4i).
	size := total * codec.RawPostingBytes * 3
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

	sharded := make([][]model.Posting, shards)
	numDocs := int64(x.NumDocs())
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
		// Shard sublists in one pass: a posting's shard follows from its
		// document id.
		for s := range sharded {
			sharded[s] = sharded[s][:0]
		}
		for _, p := range impList {
			s := int(int64(p.Doc) * int64(shards) / numDocs)
			sharded[s] = append(sharded[s], p)
		}
		for s, sub := range sharded {
			rec := shardRec{n: int32(len(sub)), blkStart: int32(len(d.impMeta))}
			if len(sub) > 0 {
				rec.max = sub[0].Score // impact-ordered: first is max
			}
			if d.impMeta, err = appendBlocks(d.impMeta, sub, false, uint32(tm.max)); err != nil {
				return nil, nil, fmt.Errorf("diskindex: term %d shard %d: %w", t, s, err)
			}
			d.shardRecs = append(d.shardRecs, rec)
		}
		d.terms[t] = tm
	}
	return d, region, nil
}
