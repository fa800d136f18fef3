package core

import (
	"math"
	"testing"
	"testing/quick"

	"sparta/internal/algos/algotest"
	"sparta/internal/cmap"
	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestPassProbabilityCertainties(t *testing.T) {
	// Already past Θ: certain.
	if p := passProbability(100, 50, nil); p != 1 {
		t.Errorf("lb>theta => %v, want 1", p)
	}
	// No unseen mass and lb <= theta: impossible.
	if p := passProbability(50, 50, nil); p != 0 {
		t.Errorf("no unseen, lb==theta => %v, want 0", p)
	}
}

func TestPassProbabilityMidpoint(t *testing.T) {
	// One unseen term with bound 100, need 50 = the mean: probability
	// must be ~0.5 under the symmetric approximation.
	p := passProbability(0, 50, []model.Score{100})
	if math.Abs(p-0.5) > 0.01 {
		t.Errorf("midpoint probability %v, want ~0.5", p)
	}
}

func TestPassProbabilityMonotonicity(t *testing.T) {
	unseen := []model.Score{1000, 800, 600}
	prev := 1.0
	for theta := model.Score(0); theta <= 2400; theta += 100 {
		p := passProbability(0, theta, unseen)
		if p > prev+1e-12 {
			t.Fatalf("probability increased with theta at %d: %v > %v", theta, p, prev)
		}
		prev = p
	}
	if passProbability(0, 2400, unseen) > 0.01 {
		t.Error("needing the full bound sum should be near-impossible")
	}
}

func TestPassProbabilityBoundsProperty(t *testing.T) {
	f := func(lbRaw, thetaRaw uint16, ubsRaw []uint16) bool {
		unseen := make([]model.Score, 0, len(ubsRaw))
		for _, u := range ubsRaw {
			unseen = append(unseen, model.Score(u))
		}
		p := passProbability(model.Score(lbRaw), model.Score(thetaRaw), unseen)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestProbRelevantEpsilonZeroIsDeterministic(t *testing.T) {
	d := cmap.NewDocState(1, 3)
	d.SetScore(0, 40)
	ub := []model.Score{38, 32, 41}
	scratch := make([]model.Score, 3)
	// UB(D) = 40+32+41 = 113.
	if !probRelevant(d, 112, ub, 0, scratch) {
		t.Error("UB > theta must be relevant")
	}
	if probRelevant(d, 113, ub, 0, scratch) {
		t.Error("UB == theta must be prunable")
	}
}

func TestProbRelevantPrunesHarderThanDeterministic(t *testing.T) {
	// A candidate needing nearly its full unseen bound survives the
	// deterministic rule but not a probabilistic one.
	d := cmap.NewDocState(1, 4)
	d.SetScore(0, 10)
	ub := []model.Score{0, 100, 100, 100}
	scratch := make([]model.Score, 4)
	theta := model.Score(305) // needs 295 of max 300 unseen
	if !probRelevant(d, theta, ub, 0, scratch) {
		t.Fatal("deterministic rule should retain (UB=310 > 305)")
	}
	if probRelevant(d, theta, ub, 0.05, scratch) {
		t.Error("probabilistic rule should prune a near-hopeless candidate")
	}
}

func TestSpartaProbHighRecallLessWork(t *testing.T) {
	x := algotest.MediumIndex(t, 31)
	q := algotest.RandomQuery(x, 8, 71)
	exact := topk.BruteForce(x, q, 20)

	safe := NewWithConfig(x, Config{})
	got, _, err := safe.Search(q, topk.Options{K: 20, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta", exact, got)

	prob := NewWithConfig(x, Config{ProbEpsilon: 0.05})
	gotP, stProb, err := prob.Search(q, topk.Options{K: 20, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec := model.Recall(exact, gotP); rec < 0.8 {
		t.Errorf("Sparta-prob recall %v too low", rec)
	}
	if stProb.StopReason == "safe" {
		t.Error("probabilistic run must not claim a safe stop")
	}

	// The work is compared where the schedule repeats, at Threads 1. At
	// Threads 4 whether either run ends phase 2 by lookups depends on how
	// far its lists got before a cleaner pass, so one run of each would
	// compare two draws. SegSize 256 takes the switch, the default ends
	// with the lists drained.
	for _, seg := range []int{256, topk.DefaultSegSize} {
		opts := topk.Options{K: 20, Exact: true, Threads: 1, SegSize: seg}
		_, stSafe, err := safe.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, stProb, err := prob.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stProb.Postings > stSafe.Postings {
			t.Errorf("SegSize %d: probabilistic pruning did more work: %d > %d", seg, stProb.Postings, stSafe.Postings)
		}
	}
}

func TestSpartaProbZeroEpsilonStillExact(t *testing.T) {
	x := algotest.SmallIndex(t, 32)
	q := algotest.RandomQuery(x, 5, 73)
	exact := topk.BruteForce(x, q, 15)
	got, _, err := NewWithConfig(x, Config{ProbEpsilon: 0}).
		Search(q, topk.Options{K: 15, Exact: true, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "Sparta(eps=0)", exact, got)
}
