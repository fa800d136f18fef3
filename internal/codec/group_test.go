package codec

import (
	"math/rand"
	"testing"

	"sparta/internal/model"
)

// docBlockWide draws doc blocks from several delta/score regimes so
// both the FOR and stream-vbyte layouts get exercised.
func docBlockWide(rng *rand.Rand, n int, wideGaps, wideScores bool) []model.Posting {
	out := make([]model.Posting, n)
	doc := uint32(0)
	for i := range out {
		if wideGaps {
			doc += rng.Uint32()%5_000_000 + 1
		} else {
			doc += rng.Uint32()%200 + 1
		}
		sc := rng.Uint32() % 60_000
		if wideScores {
			sc = rng.Uint32() % 3_000_000_000
		}
		out[i] = model.Posting{Doc: model.DocID(doc), Score: model.Score(sc)}
	}
	return out
}

func TestGroupDocBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200) + 1
		block := docBlockWide(rng, n, trial%2 == 0, trial%3 == 0)
		buf, err := EncodeDoc(Group, 0, block)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeDoc(Group, 0, buf, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range block {
			if got[i] != block[i] {
				t.Fatalf("trial %d posting %d: %+v != %+v", trial, i, got[i], block[i])
			}
		}
	}
}

func TestGroupImpactBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200) + 1
		block := make([]model.Posting, n)
		score := model.Score(rng.Uint32()%2_000_000_000 + uint32(n))
		for i := range block {
			block[i] = model.Posting{Doc: model.DocID(rng.Uint32()), Score: score}
			if rng.Intn(2) == 0 {
				drop := model.Score(rng.Intn(100_000))
				if drop > score {
					drop = score
				}
				score -= drop
			}
		}
		ceil := block[0].Score
		buf, err := EncodeImpact(Group, ceil, block)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeImpact(Group, ceil, buf, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range block {
			if got[i] != block[i] {
				t.Fatalf("trial %d posting %d: %+v != %+v", trial, i, got[i], block[i])
			}
		}
	}
}

func TestGroupMatchesRaw(t *testing.T) {
	// Both codecs must decode to identical postings from their own
	// encodings of the same blocks — the cross-codec equivalence the
	// one index format relies on.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(64) + 1
		block := docBlockWide(rng, n, trial%2 == 0, false)
		base := model.DocID(0)
		for _, id := range []ID{Raw, Group} {
			buf, err := EncodeDoc(id, base, block)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeDoc(id, base, buf, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range block {
				if got[i] != block[i] {
					t.Fatalf("%v trial %d posting %d: %+v != %+v", id, trial, i, got[i], block[i])
				}
			}
		}
	}
}

func TestGroupRejectsInvalidBlocks(t *testing.T) {
	if _, err := EncodeDoc(Group, 0, []model.Posting{{Doc: 5, Score: 1}, {Doc: 5, Score: 2}}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if _, err := EncodeDoc(Group, 10, []model.Posting{{Doc: 5, Score: 1}}); err == nil {
		t.Error("doc before base accepted")
	}
	if _, err := EncodeImpact(Group, 10, []model.Posting{{Doc: 1, Score: 20}}); err == nil {
		t.Error("score above ceiling accepted")
	}
}

func TestGroupDecodeCorrupt(t *testing.T) {
	block := []model.Posting{{Doc: 1, Score: 1 << 30}, {Doc: 2, Score: 1 << 29}}
	buf, err := EncodeDoc(Group, 0, block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDoc(Group, 0, buf[:len(buf)-1], 2, nil); err == nil {
		t.Error("truncated group doc block accepted")
	}
	if _, err := DecodeDoc(Group, 0, append(append([]byte{}, buf...), 0), 2, nil); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeDoc(Group, 0, nil, 1, nil); err == nil {
		t.Error("empty buffer accepted")
	}
	// Unknown stream tag.
	if _, err := DecodeDoc(Group, 0, []byte{0x42, 0, 0}, 1, nil); err == nil {
		t.Error("unknown tag accepted")
	}
	// FOR payload shorter than the width demands.
	if _, err := DecodeDoc(Group, 0, []byte{16, 0x01}, 1, nil); err == nil {
		t.Error("short FOR payload accepted")
	}
	// Stream-vbyte control bytes demanding more data than present.
	if _, err := DecodeDoc(Group, 0, []byte{0xff, 0xff, 0x01}, 4, nil); err == nil {
		t.Error("short svb payload accepted")
	}
	// Impact deltas that underflow the ceiling.
	ibuf, err := EncodeImpact(Group, 5, []model.Posting{{Doc: 1, Score: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeImpact(Group, 2, ibuf, 1, nil); err == nil {
		t.Error("underflowing impact delta accepted")
	}
}

func TestGroupDecodeReusesBuffer(t *testing.T) {
	block := docBlockWide(rand.New(rand.NewSource(14)), 64, false, false)
	buf, _ := EncodeDoc(Group, 0, block)
	scratch := make([]model.Posting, 0, 128)
	out, err := DecodeDoc(Group, 0, buf, 64, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &scratch[:1][0] {
		t.Error("decode did not reuse the provided buffer")
	}
}

func TestGroupCompressionRatio(t *testing.T) {
	// Typical dense blocks (small deltas, bounded scores) must beat the
	// 8-byte raw layout by at least 2x.
	rng := rand.New(rand.NewSource(15))
	var groupBytes, rawBytes int
	for trial := 0; trial < 50; trial++ {
		block := docBlockWide(rng, 64, false, false)
		g, err := EncodeDoc(Group, 0, block)
		if err != nil {
			t.Fatal(err)
		}
		r, err := EncodeDoc(Raw, 0, block)
		if err != nil {
			t.Fatal(err)
		}
		groupBytes += len(g)
		rawBytes += len(r)
	}
	if groupBytes*2 > rawBytes {
		t.Errorf("group codec: %d bytes vs %d raw; want at least 2x", groupBytes, rawBytes)
	}
}

func TestUint32StreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(3000)
		vals := make([]uint32, n)
		for i := range vals {
			if trial%2 == 0 {
				vals[i] = rng.Uint32() % 4096 // doc-length-like
			} else {
				vals[i] = rng.Uint32()
			}
		}
		buf := AppendUint32Stream(nil, vals)
		got, err := DecodeUint32Stream(buf, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("trial %d value %d: %d != %d", trial, i, got[i], vals[i])
			}
		}
		if n > 0 {
			if _, err := DecodeUint32Stream(buf[:len(buf)-1], n, nil); err == nil {
				t.Error("truncated stream accepted")
			}
		}
	}
}

func TestRawPostingsRoundTrip(t *testing.T) {
	block := docBlockWide(rand.New(rand.NewSource(17)), 64, true, true)
	raw, err := AppendDoc([]byte{0xaa}, Raw, 0, block)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0xaa || len(raw) != 1+len(block)*RawPostingBytes {
		t.Fatalf("raw size %d, want the prefix plus %d", len(raw), len(block)*RawPostingBytes)
	}
	out, err := DecodeDoc(Raw, 0, raw[1:], len(block), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range block {
		if out[i] != block[i] {
			t.Fatalf("posting %d: %+v != %+v", i, out[i], block[i])
		}
	}
	// The length is the only thing a raw block can get wrong, and it is
	// checked: one byte short, one long, or the wrong count.
	for _, bad := range [][]byte{raw[1 : len(raw)-1], append(raw[1:len(raw):len(raw)], 0)} {
		if _, err := DecodeDoc(Raw, 0, bad, len(block), nil); err != ErrCorrupt {
			t.Errorf("%d-byte raw block of %d postings: err = %v, want ErrCorrupt", len(bad), len(block), err)
		}
	}
	if _, err := DecodeImpact(Raw, 0, raw[1:], len(block)-1, nil); err != ErrCorrupt {
		t.Errorf("wrong posting count: err = %v, want ErrCorrupt", err)
	}
}
