// Group codec: a branch-light block codec over the same 64-posting
// blocks Raw stores, selectable per index through a codec id.
//
// Each block carries two tagged streams (doc order: doc-id deltas then
// scores; impact order: downward score deltas then doc ids). A stream
// is one tag byte followed by its payload:
//
//   - tag 0..16: frame-of-reference bitpacking at that fixed width —
//     the fast path when the block's max value fits ≤16 bits. Values
//     are packed little-endian into ceil(n*w/8) bytes; decode is a
//     constant-stride loop of unaligned 64-bit loads, a shift, and a
//     mask — no per-value branches.
//   - tag 0xff: stream-vbyte. All ceil(n/4) control bytes come first
//     (2-bit length codes, 4 values per control byte), then the data
//     bytes. The decode loop reads one unaligned 32-bit load per value
//     masked by a table lookup; lengths come from shifting the control
//     byte, so the loop body is branch-free and Go keeps the state in
//     registers.
//
// Both layouts decode with guarded fast paths (enough lookahead for the
// wide loads) and a bounds-checked tail, so corrupt input returns
// ErrCorrupt rather than reading out of range.
package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"sparta/internal/model"
)

const (
	// forMaxBits caps the frame-of-reference width; wider values fall
	// back to stream-vbyte, which handles 17–32 bit values in 3–4 bytes.
	forMaxBits = 16
	// tagSVB marks a stream-vbyte payload.
	tagSVB = 0xff
)

// appendStream appends one tagged stream of vals to dst.
func appendStream(dst []byte, vals []uint32) []byte {
	var maxv uint32
	for _, v := range vals {
		if v > maxv {
			maxv = v
		}
	}
	if w := bits.Len32(maxv); w <= forMaxBits {
		dst = append(dst, byte(w))
		return appendFOR(dst, vals, uint(w))
	}
	dst = append(dst, tagSVB)
	return appendSVB(dst, vals)
}

// decodeStream decodes one tagged stream of n values at buf[pos:] into
// out[:n], returning the position after the stream.
func decodeStream(buf []byte, pos, n int, out []uint32) (int, error) {
	if pos >= len(buf) {
		return 0, ErrCorrupt
	}
	tag := buf[pos]
	pos++
	switch {
	case tag <= forMaxBits:
		need := (n*int(tag) + 7) / 8
		if pos+need > len(buf) {
			return 0, ErrCorrupt
		}
		decodeFOR(buf[pos:pos+need], n, uint(tag), out)
		return pos + need, nil
	case tag == tagSVB:
		return decodeSVB(buf, pos, n, out)
	}
	return 0, ErrCorrupt
}

// appendFOR bitpacks vals at width w (0..16) little-endian, exactly
// ceil(len(vals)*w/8) bytes.
func appendFOR(dst []byte, vals []uint32, w uint) []byte {
	if w == 0 {
		return dst
	}
	var acc uint64
	var nb uint
	for _, v := range vals {
		acc |= uint64(v) << nb
		nb += w
		for nb >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nb -= 8
		}
	}
	if nb > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// decodeFOR unpacks n values of width w from data (exactly
// ceil(n*w/8) bytes, verified by the caller) into out[:n].
func decodeFOR(data []byte, n int, w uint, out []uint32) {
	if w == 0 {
		for i := 0; i < n; i++ {
			out[i] = 0
		}
		return
	}
	mask := uint32(1)<<w - 1
	// Fast path: one unaligned 64-bit load per value while the load
	// stays in bounds. At w ≤ 16 the value plus the bit offset always
	// fits in 64 bits.
	fast := 0
	if len(data) >= 8 {
		fast = (len(data)-8)*8/int(w) + 1
		if fast > n {
			fast = n
		}
	}
	bit := uint(0)
	for i := 0; i < fast; i++ {
		out[i] = uint32(binary.LittleEndian.Uint64(data[bit>>3:])>>(bit&7)) & mask
		bit += w
	}
	// Tail: assemble through a stack window so the final values never
	// load past the end of data.
	for i := fast; i < n; i++ {
		var win [8]byte
		copy(win[:], data[bit>>3:])
		out[i] = uint32(binary.LittleEndian.Uint64(win[:])>>(bit&7)) & mask
		bit += w
	}
}

// svbMask masks an unaligned 32-bit load down to a 1–4 byte value.
var svbMask = [5]uint32{0, 0xff, 0xffff, 0xffffff, 0xffffffff}

// appendSVB appends the stream-vbyte payload: ceil(n/4) control bytes,
// then 1–4 data bytes per value.
func appendSVB(dst []byte, vals []uint32) []byte {
	nc := (len(vals) + 3) / 4
	ctrlAt := len(dst)
	for i := 0; i < nc; i++ {
		dst = append(dst, 0)
	}
	for i, v := range vals {
		l := (bits.Len32(v|1) + 7) / 8 // bytes needed, 1..4
		dst[ctrlAt+(i>>2)] |= byte(l-1) << ((i & 3) * 2)
		for j := 0; j < l; j++ {
			dst = append(dst, byte(v))
			v >>= 8
		}
	}
	return dst
}

// decodeSVB decodes n stream-vbyte values at buf[pos:] into out[:n].
func decodeSVB(buf []byte, pos, n int, out []uint32) (int, error) {
	nc := (n + 3) / 4
	if pos+nc > len(buf) {
		return 0, ErrCorrupt
	}
	ctrl := buf[pos : pos+nc]
	p := pos + nc
	i := 0
	// Fast path: whole control bytes with 16 bytes of lookahead (four
	// values consume at most 16 data bytes), four masked loads per
	// iteration, no per-value branches.
	for g := 0; g < n>>2 && p+16 <= len(buf); g++ {
		c := ctrl[g]
		l0 := int(c&3) + 1
		out[i] = binary.LittleEndian.Uint32(buf[p:]) & svbMask[l0]
		p += l0
		l1 := int(c>>2&3) + 1
		out[i+1] = binary.LittleEndian.Uint32(buf[p:]) & svbMask[l1]
		p += l1
		l2 := int(c>>4&3) + 1
		out[i+2] = binary.LittleEndian.Uint32(buf[p:]) & svbMask[l2]
		p += l2
		l3 := int(c>>6&3) + 1
		out[i+3] = binary.LittleEndian.Uint32(buf[p:]) & svbMask[l3]
		p += l3
		i += 4
	}
	// Tail (and low-lookahead finish): bounds-checked byte assembly.
	for ; i < n; i++ {
		l := int(ctrl[i>>2]>>((i&3)*2)&3) + 1
		if p+l > len(buf) {
			return 0, ErrCorrupt
		}
		var v uint32
		for j := 0; j < l; j++ {
			v |= uint32(buf[p+j]) << (8 * j)
		}
		out[i] = v
		p += l
	}
	return p, nil
}

// groupScratch holds the two per-block value streams. Blocks are
// postings.BlockSize (64) long; the arrays stay on the stack for any
// block up to that size.
const groupScratchLen = 64

// appendGroupDoc appends a doc-ordered block: doc-id deltas from base,
// then scores.
func appendGroupDoc(dst []byte, base model.DocID, block []model.Posting) ([]byte, error) {
	n := len(block)
	var da, sa [groupScratchLen]uint32
	deltas, scores := scratchPair(&da, &sa, n)
	prev := base
	for i, p := range block {
		if p.Doc < prev || i > 0 && p.Doc == prev {
			return nil, docOrderError(i, p.Doc, prev)
		}
		deltas[i] = uint32(p.Doc - prev)
		scores[i] = uint32(p.Score)
		prev = p.Doc
	}
	dst = appendStream(dst, deltas)
	return appendStream(dst, scores), nil
}

// decodeGroupDoc decodes a group-coded doc-ordered block of n postings.
func decodeGroupDoc(base model.DocID, buf []byte, n int, out []model.Posting) ([]model.Posting, error) {
	out = sized(out, n)
	var da, sa [groupScratchLen]uint32
	deltas, scores := scratchPair(&da, &sa, n)
	pos, err := decodeStream(buf, 0, n, deltas)
	if err != nil {
		return nil, err
	}
	pos, err = decodeStream(buf, pos, n, scores)
	if err != nil {
		return nil, err
	}
	if pos != len(buf) {
		return nil, ErrCorrupt
	}
	prev := uint32(base)
	for i := 0; i < n; i++ {
		prev += deltas[i]
		out[i] = model.Posting{Doc: model.DocID(prev), Score: model.Score(scores[i])}
	}
	return out, nil
}

// appendGroupImpact appends an impact-ordered block: downward score
// deltas from ceil, then doc ids.
func appendGroupImpact(dst []byte, ceil model.Score, block []model.Posting) ([]byte, error) {
	n := len(block)
	var da, sa [groupScratchLen]uint32
	deltas, docs := scratchPair(&da, &sa, n)
	prev := uint32(ceil)
	for i, p := range block {
		s := uint32(p.Score)
		if s > prev {
			return nil, fmt.Errorf("codec: scores increase at %d (%d > %d)", i, s, prev)
		}
		deltas[i] = prev - s
		docs[i] = uint32(p.Doc)
		prev = s
	}
	dst = appendStream(dst, deltas)
	return appendStream(dst, docs), nil
}

// decodeGroupImpact decodes a group-coded impact-ordered block of n
// postings.
func decodeGroupImpact(ceil model.Score, buf []byte, n int, out []model.Posting) ([]model.Posting, error) {
	out = sized(out, n)
	var da, sa [groupScratchLen]uint32
	deltas, docs := scratchPair(&da, &sa, n)
	pos, err := decodeStream(buf, 0, n, deltas)
	if err != nil {
		return nil, err
	}
	pos, err = decodeStream(buf, pos, n, docs)
	if err != nil {
		return nil, err
	}
	if pos != len(buf) {
		return nil, ErrCorrupt
	}
	prev := uint32(ceil)
	for i := 0; i < n; i++ {
		d := deltas[i]
		if d > prev {
			return nil, ErrCorrupt
		}
		prev -= d
		out[i] = model.Posting{Doc: model.DocID(docs[i]), Score: model.Score(prev)}
	}
	return out, nil
}

// scratchPair returns two n-length uint32 slices, backed by the stack
// arrays when n fits (the normal 64-posting block case).
func scratchPair(a, b *[groupScratchLen]uint32, n int) ([]uint32, []uint32) {
	if n <= groupScratchLen {
		return a[:n], b[:n]
	}
	return make([]uint32, n), make([]uint32, n)
}

// AppendUint32Stream appends one tagged group stream of vals — the
// same layout posting streams use, reused for standalone u32 arrays
// such as the live index's per-segment doc-length sidecar.
func AppendUint32Stream(dst []byte, vals []uint32) []byte {
	return appendStream(dst, vals)
}

// DecodeUint32Stream decodes a stream of exactly n values written by
// AppendUint32Stream; buf must contain the stream and nothing else.
func DecodeUint32Stream(buf []byte, n int, out []uint32) ([]uint32, error) {
	if cap(out) < n {
		out = make([]uint32, n)
	}
	out = out[:n]
	pos, err := decodeStream(buf, 0, n, out)
	if err != nil {
		return nil, err
	}
	if pos != len(buf) {
		return nil, ErrCorrupt
	}
	return out, nil
}
