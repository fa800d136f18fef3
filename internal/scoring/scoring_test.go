package scoring

import (
	"testing"
	"testing/quick"

	"sparta/internal/model"
)

func TestTermScorePositive(t *testing.T) {
	s := New(1000)
	if got := s.TermScore(1, 100, 10); got <= 0 {
		t.Errorf("TermScore = %d, want positive", got)
	}
}

func TestTermScoreZeroTF(t *testing.T) {
	s := New(1000)
	if got := s.TermScore(0, 100, 10); got != 0 {
		t.Errorf("TermScore(tf=0) = %d, want 0", got)
	}
}

func TestTermScoreMonotoneInTF(t *testing.T) {
	s := New(1000)
	prev := model.Score(0)
	for tf := uint32(1); tf <= 100; tf *= 2 {
		cur := s.TermScore(tf, 100, 10)
		if cur <= prev {
			t.Fatalf("score not increasing: tf=%d score=%d prev=%d", tf, cur, prev)
		}
		prev = cur
	}
}

func TestTermScoreDecreasesWithDF(t *testing.T) {
	s := New(100000)
	rare := s.TermScore(3, 100, 5)
	common := s.TermScore(3, 100, 50000)
	if rare <= common {
		t.Errorf("rare-term score %d not > common-term score %d", rare, common)
	}
}

func TestTermScoreLengthNormalization(t *testing.T) {
	s := New(1000)
	short := s.TermScore(2, 50, 100)
	long := s.TermScore(2, 5000, 100)
	if short <= long {
		t.Errorf("short-doc score %d not > long-doc score %d", short, long)
	}
}

func TestTermScoreDegenerateInputs(t *testing.T) {
	s := New(10)
	// docLen and df get floored at 1 rather than dividing by zero.
	if got := s.TermScore(1, 0, 0); got <= 0 {
		t.Errorf("degenerate TermScore = %d, want positive", got)
	}
}

func TestTermScorePositiveProperty(t *testing.T) {
	s := New(50000)
	f := func(tf uint16, docLen uint16, df uint16) bool {
		if tf == 0 {
			return s.TermScore(0, int(docLen), int(df)) == 0
		}
		return s.TermScore(uint32(tf), int(docLen), int(df)) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIDF(t *testing.T) {
	if IDF(1000, 1) <= IDF(1000, 999) {
		t.Error("IDF must decrease with df")
	}
	if IDF(1000, 0) != IDF(1000, 1) {
		t.Error("IDF(0) should be floored to IDF(1)")
	}
}

func TestScoreFitsUint32(t *testing.T) {
	// The disk format stores scores as u32; the most extreme plausible
	// score (huge corpus, df=1, high tf, tiny doc) must fit.
	s := New(1_000_000_000)
	got := s.TermScore(1000, 1, 1)
	if got <= 0 || got > 0xffffffff {
		t.Errorf("extreme score %d does not fit u32", got)
	}
}
