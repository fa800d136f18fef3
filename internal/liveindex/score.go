// Read-time scoring: the piece that makes segments byte-identical to
// a fresh single-index build.
//
// The builder's score (internal/scoring) is
//
//	ts = (1 + ln tf) / sqrt(|D|) * ln(1 + N/df)
//
// rounded to fixed point. N (corpus size) and df (global document
// frequency) move with every ingested document, so a frozen segment
// cannot bake final scores: it stores the raw term frequency per
// posting instead, and scores are produced at cursor-read time from
// the idf-independent weight w = (1 + ln tf)/sqrt(|D|) and the global
// idf of the query's epoch. Both w and the score come from scoring's
// own pieces (LogTF, SqrtLen, IDF, Score), the ones TermScore is made
// of, so the fixed-point score is bit-identical to what Builder.Build
// would have produced for the same corpus state.
//
// Impact lists are ordered by w (descending, document id ascending on
// ties). The map w ↦ score is monotone for any fixed idf > 0, so a
// w-ordered list is score-non-increasing under every epoch — the
// ScoreCursor contract holds without re-sorting at read time.
//
// Upper-bound metadata (term max, block max) is stored quantized: the
// ceiling of w × 10⁶ in the on-disk u32 Max fields. Quantization only
// ever rounds up, and the +1 in boundOf absorbs FromFloat's
// round-half-up and any ulp lost in the multiply, so stored bounds are
// always valid (possibly 1-loose) upper bounds — which is all the
// pruning algorithms (MaxScore, WAND, BMW, the TA family) need for
// exactness.
//
// Live ingest indexes documents with a neutral quality prior only: the
// builder multiplies a non-neutral prior onto the already-rounded
// fixed-point score, which would break the idf-independent impact
// ordering above.
package liveindex

import (
	"math"

	"sparta/internal/model"
	"sparta/internal/scoring"
)

// sqrtLens maps scoring.SqrtLen over a segment's document lengths: the
// per-document √|D| a segment keeps beside them.
func sqrtLens(docLens []uint32) []float64 {
	out := make([]float64, len(docLens))
	for i, n := range docLens {
		out[i] = scoring.SqrtLen(int(n))
	}
	return out
}

// quantUp quantizes a raw weight upward into the u32 Max fields of the
// on-disk dictionary and block-max metadata.
func quantUp(w float64) uint32 {
	q := math.Ceil(w * model.ScoreScale)
	if q < 1 {
		return 1
	}
	if q >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(q)
}

// boundOf maps a stored quantized weight to a score upper bound for
// the given idf. quant = 0 means an empty region and stays 0.
func boundOf(quant uint32, idf float64) model.Score {
	if quant == 0 {
		return 0
	}
	return model.Score(math.Ceil(float64(quant)*idf)) + 1
}
