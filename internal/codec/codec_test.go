package codec

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"sparta/internal/model"
)

// codecs is every id an index can be built with; the tests below are
// one table over it.
var codecs = []ID{Raw, Group}

func docBlock(rng *rand.Rand, n int) []model.Posting {
	ids := make(map[uint32]bool)
	for len(ids) < n {
		ids[rng.Uint32()%1_000_000+1] = true
	}
	out := make([]model.Posting, 0, n)
	for id := range ids {
		out = append(out, model.Posting{Doc: model.DocID(id), Score: model.Score(rng.Uint32() % 50_000_000)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out
}

func TestDocBlockRoundTrip(t *testing.T) {
	for _, id := range codecs {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(200) + 1
			block := docBlock(rng, n)
			buf, err := EncodeDoc(id, 0, block)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeDoc(id, 0, buf, n, nil)
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

func TestDocBlockWithBase(t *testing.T) {
	block := []model.Posting{{Doc: 100, Score: 7}, {Doc: 105, Score: 3}}
	for _, id := range codecs {
		buf, err := EncodeDoc(id, 99, block)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeDoc(id, 99, buf, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Doc != 100 || got[1].Doc != 105 {
			t.Errorf("%v: got %v", id, got)
		}
	}
	// Under a delta codec a wrong base shifts everything: detected only
	// by the caller, but it must not error. Raw does not read the base.
	buf, _ := EncodeDoc(Group, 99, block)
	if got, err := DecodeDoc(Group, 0, buf, 2, nil); err != nil || got[0].Doc != 1 {
		t.Errorf("group base-0 decode: %v, %v", got, err)
	}
	buf, _ = EncodeDoc(Raw, 99, block)
	if got, err := DecodeDoc(Raw, 0, buf, 2, nil); err != nil || got[0].Doc != 100 {
		t.Errorf("raw base-0 decode: %v, %v", got, err)
	}
}

func TestDocBlockRejectsUnsorted(t *testing.T) {
	for _, id := range codecs {
		if _, err := EncodeDoc(id, 0, []model.Posting{{Doc: 5, Score: 1}, {Doc: 5, Score: 2}}); err == nil {
			t.Errorf("%v: duplicate ids accepted", id)
		}
		if _, err := EncodeDoc(id, 10, []model.Posting{{Doc: 5, Score: 1}}); err == nil {
			t.Errorf("%v: doc before base accepted", id)
		}
	}
}

func TestImpactBlockRoundTrip(t *testing.T) {
	for _, id := range codecs {
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(200) + 1
			block := make([]model.Posting, n)
			score := model.Score(rng.Uint32()%50_000_000 + uint32(n))
			for i := range block {
				block[i] = model.Posting{Doc: model.DocID(rng.Uint32() % 1_000_000), Score: score}
				if rng.Intn(2) == 0 {
					score -= model.Score(rng.Intn(1000))
				}
				if score < 0 {
					score = 0
				}
			}
			ceil := block[0].Score
			buf, err := EncodeImpact(id, ceil, block)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeImpact(id, ceil, buf, n, nil)
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

// TestImpactBlockRejectsIncreasing pins the one place the codecs'
// contracts differ: Group delta-codes scores downward and must refuse a
// block that rises, Raw stores a payload it does not interpret — the
// live index's frozen segments keep term frequencies in that field,
// ordered by a weight the block does not hold.
func TestImpactBlockRejectsIncreasing(t *testing.T) {
	above := []model.Posting{{Doc: 1, Score: 20}}
	rising := []model.Posting{{Doc: 1, Score: 20}, {Doc: 2, Score: 25}}
	if _, err := EncodeImpact(Group, 10, above); err == nil {
		t.Error("group: score above ceiling accepted")
	}
	if _, err := EncodeImpact(Group, 30, rising); err == nil {
		t.Error("group: increasing scores accepted")
	}
	buf, err := EncodeImpact(Raw, 10, rising)
	if err != nil {
		t.Fatalf("raw: non-monotone payload refused: %v", err)
	}
	got, err := DecodeImpact(Raw, 10, buf, len(rising), nil)
	if err != nil || got[0] != rising[0] || got[1] != rising[1] {
		t.Errorf("raw: non-monotone payload came back as %v, %v", got, err)
	}
}

func TestDecodeCorruptData(t *testing.T) {
	block := []model.Posting{{Doc: 1, Score: 1 << 30}, {Doc: 2, Score: 1 << 29}}
	for _, id := range codecs {
		buf, _ := EncodeDoc(id, 0, block)
		if _, err := DecodeDoc(id, 0, buf[:len(buf)-1], 2, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v: truncated doc block: %v", id, err)
		}
		if _, err := DecodeDoc(id, 0, append(buf, 0), 2, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v: trailing bytes: %v", id, err)
		}
		ibuf, _ := EncodeImpact(id, 1<<30, block)
		if _, err := DecodeImpact(id, 1<<30, ibuf[:len(ibuf)-1], 2, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v: truncated impact block: %v", id, err)
		}
	}
	// The retired id 0 and ids never assigned decode nothing.
	for _, id := range []ID{0, 3, 255} {
		if id.Valid() {
			t.Errorf("id %d reads as valid", id)
		}
		if _, err := DecodeDoc(id, 0, nil, 0, nil); err == nil {
			t.Errorf("id %d decoded a doc block", id)
		}
		if _, err := EncodeImpact(id, 0, nil); err == nil {
			t.Errorf("id %d encoded an impact block", id)
		}
	}
}

func TestCompressionRatioOnDenseLists(t *testing.T) {
	// Dense doc-ordered lists (small deltas) must compress well below
	// the fixed 8-byte encoding.
	var block []model.Posting
	for i := 0; i < 1000; i++ {
		block = append(block, model.Posting{
			Doc:   model.DocID(i*7 + 1),
			Score: model.Score(1_000_000 + i%1000),
		})
	}
	buf, err := EncodeDoc(Group, 0, block)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeDoc(Raw, 0, block)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(block)*RawPostingBytes {
		t.Errorf("raw block is %d bytes, want %d", len(raw), len(block)*RawPostingBytes)
	}
	if len(buf)*2 > len(raw) {
		t.Errorf("compressed %d bytes vs raw %d; expected at least 2x", len(buf), len(raw))
	}
}

func TestDecodeReusesBuffer(t *testing.T) {
	block := docBlock(rand.New(rand.NewSource(3)), 64)
	for _, id := range codecs {
		buf, _ := EncodeDoc(id, 0, block)
		scratch := make([]model.Posting, 0, 128)
		out, err := DecodeDoc(id, 0, buf, 64, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if &out[0] != &scratch[:1][0] {
			t.Errorf("%v: decode did not reuse the provided buffer", id)
		}
	}
}

func FuzzDecodeDocBlock(f *testing.F) {
	sample := []model.Posting{{Doc: 3, Score: 9}, {Doc: 8, Score: 2}}
	for _, id := range codecs {
		valid, _ := EncodeDoc(id, 0, sample)
		f.Add(valid, 2)
	}
	f.Add([]byte{0xff, 0x01}, 1)
	f.Add([]byte{0x02, 0x0f, 0xff}, 3) // FOR tags with short payloads
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1024 {
			return
		}
		// No codec may panic on arbitrary bytes; errors are fine, but a
		// nil error must deliver exactly n postings.
		for _, id := range codecs {
			out, err := DecodeDoc(id, 0, data, n, nil)
			if err == nil && len(out) != n {
				t.Fatalf("%v: no error but %d postings, want %d", id, len(out), n)
			}
		}
	})
}

func FuzzDecodeImpactBlock(f *testing.F) {
	sample := []model.Posting{{Doc: 3, Score: 90}, {Doc: 8, Score: 20}}
	for _, id := range codecs {
		valid, _ := EncodeImpact(id, 100, sample)
		f.Add(valid, 2)
	}
	f.Add([]byte{0x10, 0x00, 0xff}, 2)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1024 {
			return
		}
		for _, id := range codecs {
			out, err := DecodeImpact(id, 1<<31, data, n, nil)
			if err == nil && len(out) != n {
				t.Fatalf("%v: no error but %d postings, want %d", id, len(out), n)
			}
		}
	})
}
