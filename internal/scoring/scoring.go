// Package scoring implements the paper's document scoring model: "a
// standard tf-idf score function with document length normalization"
// (§5.1, citing Baeza-Yates & Ribeiro-Neto), with term scores "stored
// in the posting lists as integers, scaled by 10^6 and rounded" (§5.2).
//
// The concrete formula is the classic normalized tf-idf used by Lucene
// and the IR textbook:
//
//	ts(D, t) = (1 + ln tf(D,t)) / sqrt(|D|) * ln(1 + N/df(t))
//
// where tf is the term's occurrence count in D, |D| the document length
// in tokens, N the corpus size and df the term's document frequency.
// The score of a document for a query is the sum of its term scores
// (§2). Scores are strictly positive for any indexed posting, which the
// retrieval algorithms rely on (a zero score slot means "not seen yet").
package scoring

import (
	"math"

	"sparta/internal/model"
)

// Scorer computes integer term scores for one corpus.
type Scorer struct {
	numDocs int
}

// New creates a scorer for a corpus of numDocs documents.
func New(numDocs int) *Scorer {
	return &Scorer{numDocs: numDocs}
}

// TermScore returns the fixed-point tf-idf score of a term occurring tf
// times in a document of docLen tokens, where the term appears in df
// documents corpus-wide. The result is strictly positive for tf >= 1.
func (s *Scorer) TermScore(tf uint32, docLen int, df int) model.Score {
	if tf == 0 {
		return 0
	}
	return Score(LogTF(tf)/SqrtLen(docLen), IDF(s.numDocs, df))
}

// The formula's pieces. The live index scores at read time from the
// same pieces — a weight LogTF/SqrtLen stored per posting, the idf of
// the moment — so its scores are TermScore's bit for bit: one copy of
// each floating-point operation, not two copies compiled alike.

// logTFs[tf] is 1 + ln tf for the term frequencies nearly every
// posting has.
var logTFs = func() (t [256]float64) {
	for tf := range t {
		t[tf] = 1 + math.Log(float64(tf))
	}
	return t
}()

// LogTF returns 1 + ln tf, the weight's numerator.
func LogTF(tf uint32) float64 {
	if tf < uint32(len(logTFs)) {
		return logTFs[tf]
	}
	return 1 + math.Log(float64(tf))
}

// SqrtLen returns √|D|, the weight's denominator, for a document of
// docLen tokens (at least one).
func SqrtLen(docLen int) float64 { return math.Sqrt(float64(max(docLen, 1))) }

// IDF returns the inverse document frequency ln(1 + N/df) of a term in
// df of numDocs documents (df at least one).
func IDF(numDocs, df int) float64 {
	return math.Log(1 + float64(numDocs)/float64(max(df, 1)))
}

// Score returns the fixed-point score w·idf of a posting of weight w,
// rounded, and at least 1: postings always carry a positive score.
func Score(w, idf float64) model.Score {
	return max(model.FromFloat(w*idf), 1)
}
