// Package codec turns 64-posting blocks into bytes and back. The
// on-disk index (package diskindex) stores every posting region as a
// sequence of such blocks and names the codec it used by an ID its
// manifest persists, so the choice between the paper's layout and a
// compressed one is a value, not a second index implementation.
//
// The paper stores its indexes "uncompressed as a collection of binary
// files" (§5.1) to "crystallize the comparison among the core
// algorithms", citing evidence that with state-of-the-art codecs "the
// impact of decompression on end-to-end performance is marginal (e.g.,
// up to 6% with QMX-D4 compression)" (§5). Raw is that layout; Group
// (group.go) is the codec the reproduction checks the claim with:
// BenchmarkCompressionImpact runs the same queries over one index built
// with each and reports the latency delta beside the size ratio.
//
// A posting is a (doc id, score) pair of uint32s. A doc-ordered block is
// coded against the doc id immediately before it, an impact-ordered
// block against the score bound entering it; Raw ignores both.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sparta/internal/model"
)

// ErrCorrupt reports malformed encoded data.
var ErrCorrupt = errors.New("codec: corrupt encoded postings")

// ID selects a posting-block codec. Ids are persisted in index
// manifests, so a retired id is never reused: 0 was a byte-at-a-time
// varint codec, which Group dominated on every measurement (DESIGN.md
// §4i) and no index is built with any more.
type ID uint8

const (
	// Group is the branch-light stream-vbyte + frame-of-reference codec.
	Group ID = 1
	// Raw is the paper's uncompressed layout: RawPostingBytes per
	// posting, nothing delta-coded. It is the only codec that accepts an
	// impact-ordered block whose scores are not non-increasing, which is
	// what the live index's frozen segments store (term frequencies
	// ordered by a weight the index does not see).
	Raw ID = 2
)

// RawPostingBytes is the fixed encoded size of one posting under Raw
// (doc id + score, both little-endian uint32).
const RawPostingBytes = 8

// Valid reports whether id names a codec this build reads and writes.
func (id ID) Valid() bool { return id == Group || id == Raw }

func (id ID) String() string {
	switch id {
	case Group:
		return "group"
	case Raw:
		return "raw"
	}
	return fmt.Sprintf("codec(%d)", uint8(id))
}

func errUnknown(id ID) error { return fmt.Errorf("codec: unknown codec id %d", uint8(id)) }

// AppendDoc appends the encoding of a doc-ordered block to dst. base is
// the id immediately before the block (the previous block's last doc,
// or 0 for the first block); ids must strictly increase from it.
func AppendDoc(dst []byte, id ID, base model.DocID, block []model.Posting) ([]byte, error) {
	switch id {
	case Group:
		return appendGroupDoc(dst, base, block)
	case Raw:
		prev := base
		for i, p := range block {
			if p.Doc < prev || i > 0 && p.Doc == prev {
				return nil, docOrderError(i, p.Doc, prev)
			}
			prev = p.Doc
		}
		return appendRaw(dst, block), nil
	}
	return nil, errUnknown(id)
}

// docOrderError reports posting i breaking AppendDoc's ordering
// contract: the first doc id may equal the base, later ones must rise.
func docOrderError(i int, doc, prev model.DocID) error {
	if i == 0 {
		return fmt.Errorf("codec: block starts at doc %d before base %d", doc, prev)
	}
	return fmt.Errorf("codec: doc ids not strictly increasing at %d", i)
}

// AppendImpact appends the encoding of an impact-ordered block to dst.
// ceil is the score bound entering the block (the previous block's last
// score, or the term max for the first block). Group requires scores
// that never increase from it; Raw stores whatever it is given.
func AppendImpact(dst []byte, id ID, ceil model.Score, block []model.Posting) ([]byte, error) {
	switch id {
	case Group:
		return appendGroupImpact(dst, ceil, block)
	case Raw:
		return appendRaw(dst, block), nil
	}
	return nil, errUnknown(id)
}

// EncodeDoc is AppendDoc into a fresh buffer.
func EncodeDoc(id ID, base model.DocID, block []model.Posting) ([]byte, error) {
	return AppendDoc(make([]byte, 0, sizeHint(id, len(block))), id, base, block)
}

// EncodeImpact is AppendImpact into a fresh buffer.
func EncodeImpact(id ID, ceil model.Score, block []model.Posting) ([]byte, error) {
	return AppendImpact(make([]byte, 0, sizeHint(id, len(block))), id, ceil, block)
}

// sizeHint is the capacity a fresh buffer for n postings starts with.
func sizeHint(id ID, n int) int {
	if id == Raw {
		return n * RawPostingBytes
	}
	return 2 + n*3
}

// DecodeDoc decodes a doc-ordered block of n postings into out (reused
// if big enough). buf must hold the block and nothing else.
func DecodeDoc(id ID, base model.DocID, buf []byte, n int, out []model.Posting) ([]model.Posting, error) {
	switch id {
	case Group:
		return decodeGroupDoc(base, buf, n, out)
	case Raw:
		return decodeRaw(buf, n, out)
	}
	return nil, errUnknown(id)
}

// DecodeImpact decodes an impact-ordered block of n postings into out.
func DecodeImpact(id ID, ceil model.Score, buf []byte, n int, out []model.Posting) ([]model.Posting, error) {
	switch id {
	case Group:
		return decodeGroupImpact(ceil, buf, n, out)
	case Raw:
		return decodeRaw(buf, n, out)
	}
	return nil, errUnknown(id)
}

// sized returns out resliced (or reallocated) to n postings.
func sized(out []model.Posting, n int) []model.Posting {
	if cap(out) < n {
		return make([]model.Posting, n)
	}
	return out[:n]
}

// appendRaw appends block in the fixed layout, growing dst once.
func appendRaw(dst []byte, block []model.Posting) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, len(block)*RawPostingBytes)...)
	w := dst[at:]
	for i, p := range block {
		binary.LittleEndian.PutUint32(w[i*RawPostingBytes:], uint32(p.Doc))
		binary.LittleEndian.PutUint32(w[i*RawPostingBytes+4:], uint32(p.Score))
	}
	return dst
}

// decodeRaw decodes exactly n fixed-layout postings.
func decodeRaw(buf []byte, n int, out []model.Posting) ([]model.Posting, error) {
	if n < 0 || len(buf) != n*RawPostingBytes {
		return nil, ErrCorrupt
	}
	out = sized(out, n)
	for i := range out {
		b := buf[i*RawPostingBytes:][:RawPostingBytes]
		out[i] = model.Posting{
			Doc:   model.DocID(binary.LittleEndian.Uint32(b)),
			Score: model.Score(binary.LittleEndian.Uint32(b[4:])),
		}
	}
	return out, nil
}
