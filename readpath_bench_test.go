package sparta_test

import (
	"fmt"
	"testing"

	"sparta/internal/codec"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/xrand"
)

// BenchmarkCursorTraversalRAM measures the charged cursors' raw
// per-posting cost with simulated I/O disabled — the block-decoded
// read path's CPU claim in isolation (one reader-accounting round
// trip per 64 postings, Next() a slice index). Sequential traversal
// is the win; sparse SkipTo trades a modest decode penalty for it.
func BenchmarkCursorTraversalRAM(b *testing.B) {
	mem := index.FromCorpus(corpus.New(corpus.Spec{
		Name: "trav", Docs: 20000, Vocab: 2000, ZipfS: 1.0,
		MeanDocLen: 150, MinDocLen: 5, Seed: 3,
	}))
	disk, err := diskindex.FromIndex(mem, 12, iomodel.RAMConfig())
	if err != nil {
		b.Fatal(err)
	}
	// busiest term: longest posting list
	best, bestDF := model.TermID(0), 0
	for t := 0; t < disk.NumTerms(); t++ {
		if df := disk.DF(model.TermID(t)); df > bestDF {
			best, bestDF = model.TermID(t), df
		}
	}
	b.Run("doc-next", func(b *testing.B) {
		var sum model.Score
		for i := 0; i < b.N; i++ {
			c := disk.DocCursor(best)
			for c.Next() {
				sum += c.Score()
			}
		}
		_ = sum
		b.ReportMetric(float64(bestDF), "postings/op")
	})
	b.Run("score-next", func(b *testing.B) {
		var sum model.Score
		for i := 0; i < b.N; i++ {
			c := disk.ScoreCursor(best)
			for c.Next() {
				sum += c.Score()
			}
		}
		_ = sum
	})
	b.Run("skipto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := disk.DocCursor(best)
			d := model.DocID(0)
			for c.SkipTo(d) {
				d = c.Doc() + 37
			}
		}
	})
}

// benchBlocks synthesizes full 64-posting doc blocks with the given gap
// distribution: "uniform" draws small near-constant gaps (the dense
// head of a Zipfian list, the FOR fast path), "zipf" draws heavy-tailed
// gaps spanning one to five bytes per varint (the sparse tail, where
// stream-vbyte's table decode replaces per-byte branches).
func benchBlocks(dist string, nBlocks int) (bases []model.DocID, blocks [][]model.Posting) {
	rng := xrand.New(77)
	zipf := xrand.NewZipf(xrand.New(78), 1.2, 1<<20)
	next := model.DocID(0)
	for b := 0; b < nBlocks; b++ {
		base := next
		block := make([]model.Posting, 64)
		for i := range block {
			var gap model.DocID
			switch dist {
			case "uniform":
				gap = model.DocID(1 + rng.Intn(16))
			case "zipf":
				gap = model.DocID(1 + zipf.Next())
			}
			next += gap
			block[i] = model.Posting{Doc: next, Score: model.Score(1 + rng.Intn(1000))}
		}
		bases = append(bases, base)
		blocks = append(blocks, block)
	}
	return bases, blocks
}

// BenchmarkDecodeDocBlock measures the raw per-posting decode cost of
// each codec over identical block contents — the fixed 8-byte raw layout
// against the group codec's constant-stride FOR/stream-vbyte paths.
// ns/posting is the number the read path's CPU claim rests on.
func BenchmarkDecodeDocBlock(b *testing.B) {
	const nBlocks = 64
	for _, id := range []codec.ID{codec.Raw, codec.Group} {
		for _, dist := range []string{"uniform", "zipf"} {
			bases, blocks := benchBlocks(dist, nBlocks)
			encoded := make([][]byte, nBlocks)
			total := 0
			for i, blk := range blocks {
				buf, err := codec.EncodeDoc(id, bases[i], blk)
				if err != nil {
					b.Fatal(err)
				}
				encoded[i] = buf
				total += len(blk)
			}
			b.Run(fmt.Sprintf("%s/%s", id, dist), func(b *testing.B) {
				out := make([]model.Posting, 0, 64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j, buf := range encoded {
						dec, err := codec.DecodeDoc(id, bases[j], buf, len(blocks[j]), out[:0])
						if err != nil {
							b.Fatal(err)
						}
						out = dec
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/posting")
			})
		}
	}
}

// BenchmarkDecodeImpactBlock is the score-order counterpart: downward
// score deltas plus raw doc ids per block.
func BenchmarkDecodeImpactBlock(b *testing.B) {
	const nBlocks = 64
	for _, id := range []codec.ID{codec.Raw, codec.Group} {
		for _, dist := range []string{"uniform", "zipf"} {
			_, blocks := benchBlocks(dist, nBlocks)
			type enc struct {
				ceil model.Score
				buf  []byte
				n    int
			}
			encoded := make([]enc, nBlocks)
			total := 0
			for i, blk := range blocks {
				// Impact blocks are non-increasing by score.
				imp := make([]model.Posting, len(blk))
				copy(imp, blk)
				for a := range imp {
					imp[a].Score = model.Score(10000 - 100*a)
				}
				ceil := imp[0].Score
				buf, err := codec.EncodeImpact(id, ceil, imp)
				if err != nil {
					b.Fatal(err)
				}
				encoded[i] = enc{ceil: ceil, buf: buf, n: len(imp)}
				total += len(imp)
			}
			b.Run(fmt.Sprintf("%s/%s", id, dist), func(b *testing.B) {
				out := make([]model.Posting, 0, 64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, e := range encoded {
						dec, err := codec.DecodeImpact(id, e.ceil, e.buf, e.n, out[:0])
						if err != nil {
							b.Fatal(err)
						}
						out = dec
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/posting")
			})
		}
	}
}
