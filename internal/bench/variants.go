package bench

import (
	"fmt"
	"time"

	"sparta/internal/algos/bmw"
	"sparta/internal/algos/jass"
	"sparta/internal/algos/maxscore"
	"sparta/internal/algos/pnra"
	"sparta/internal/algos/pra"
	"sparta/internal/algos/snra"
	"sparta/internal/algos/ta"
	"sparta/internal/cmap"
	"sparta/internal/core"
	"sparta/internal/membudget"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// AlgoID names an algorithm implementation.
type AlgoID string

// The competing algorithms of §5 plus the sequential ancestors.
const (
	AlgoSparta   AlgoID = "Sparta"
	AlgoPRA      AlgoID = "pRA"
	AlgoPNRA     AlgoID = "pNRA"
	AlgoSNRA     AlgoID = "sNRA"
	AlgoPBMW     AlgoID = "pBMW"
	AlgoPJASS    AlgoID = "pJASS"
	AlgoRA       AlgoID = "RA"
	AlgoNRA      AlgoID = "NRA"
	AlgoWAND     AlgoID = "WAND"
	AlgoPWAND    AlgoID = "pWAND"
	AlgoMaxScore AlgoID = "MaxScore"
	AlgoBMW      AlgoID = "BMW"
	AlgoJASS     AlgoID = "JASS"
)

// AllAlgos lists every algorithm. Each answers an Exact query with the
// reference's bytes, scores included (the topk.Algorithm contract), so
// the identity suites iterate this one list.
var AllAlgos = []AlgoID{
	AlgoSparta, AlgoPRA, AlgoPNRA, AlgoSNRA, AlgoPBMW, AlgoPJASS, AlgoRA,
	AlgoNRA, AlgoWAND, AlgoPWAND, AlgoMaxScore, AlgoBMW, AlgoJASS,
}

// MakeAlgorithm instantiates id over view.
func MakeAlgorithm(id AlgoID, view postings.View) topk.Algorithm {
	switch id {
	case AlgoSparta:
		return core.New(view)
	case AlgoPRA:
		return pra.New(view)
	case AlgoPNRA:
		return pnra.New(view)
	case AlgoSNRA:
		return snra.New(view)
	case AlgoPBMW:
		return bmw.NewPBMW(view)
	case AlgoPJASS:
		return jass.NewP(view)
	case AlgoRA:
		return ta.NewRA(view)
	case AlgoNRA:
		return ta.NewNRA(view)
	case AlgoWAND:
		return bmw.NewWAND(view)
	case AlgoPWAND:
		return bmw.NewPWAND(view)
	case AlgoMaxScore:
		return maxscore.New(view)
	case AlgoBMW:
		return bmw.NewBMW(view)
	case AlgoJASS:
		return jass.New(view)
	default:
		panic(fmt.Sprintf("bench: unknown algorithm %q", id))
	}
}

// Tuning carries the approximation knobs of §5.3. The paper's absolute
// values (Δ=10ms, f=5/10, p=0.02/0.005) were tuned for its corpus and
// hardware; at the reproduction's scale the same roles are played by
// recalibrated values, recorded in EXPERIMENTS.md.
type Tuning struct {
	// Delta is the TA-family heap-idle stop for the "high" variants.
	Delta time.Duration
	// FHigh and FLow are pBMW's threshold factors.
	FHigh, FLow float64
	// PHigh and PLow are pJASS's posting fractions.
	PHigh, PLow float64
}

// DefaultTuning returns the reproduction's calibrated knobs (see
// EXPERIMENTS.md "Calibration"): each high variant lands at ≥96%
// recall on 12-term queries at the default scales, mirroring how the
// paper picked its Δ=10ms / f=5 / p=0.02 for its corpus.
func DefaultTuning() Tuning {
	return Tuning{
		Delta: 5 * time.Millisecond,
		FHigh: 2, FLow: 6,
		PHigh: 0.30, PLow: 0.10,
	}
}

// Variant is a named algorithm configuration ("Sparta-high", ...).
type Variant struct {
	ID    AlgoID
	Label string
	Opts  topk.Options
}

// budget converts the environment's entry budget to a fresh
// per-experiment membudget (shared across the experiment's queries run
// one at a time; each query releases what it charged).
func (e *Env) budget() *membudget.Budget {
	n := e.Opts.MemBudgetEntries
	if n < 0 {
		return nil
	}
	return membudget.New(int64(n) * cmap.DocStateBytes)
}

// baseOpts returns the common options of an experiment run.
func (e *Env) baseOpts() topk.Options {
	return topk.Options{
		K:      e.Opts.K,
		Budget: e.budget(),
	}
}

// ExactVariants returns the exact configurations of Table 2, in the
// paper's column order.
func (e *Env) ExactVariants() []Variant {
	base := e.baseOpts()
	base.Exact = true
	out := make([]Variant, 0, 6)
	for _, id := range []AlgoID{AlgoSparta, AlgoPNRA, AlgoSNRA, AlgoPRA, AlgoPBMW, AlgoPJASS} {
		out = append(out, Variant{ID: id, Label: string(id) + "-exact", Opts: base})
	}
	return out
}

// HighVariants returns the high-recall approximate configurations of
// Figures 3a–3c (Δ for the TA family, f/p high for pBMW/pJASS).
func (e *Env) HighVariants(t Tuning) []Variant {
	var out []Variant
	for _, id := range []AlgoID{AlgoSparta, AlgoPRA, AlgoPNRA, AlgoSNRA} {
		o := e.baseOpts()
		o.Delta = t.Delta
		out = append(out, Variant{ID: id, Label: string(id) + "-high", Opts: o})
	}
	ob := e.baseOpts()
	ob.BoostF = t.FHigh
	out = append(out, Variant{ID: AlgoPBMW, Label: "pBMW-high", Opts: ob})
	oj := e.baseOpts()
	oj.FracP = t.PHigh
	out = append(out, Variant{ID: AlgoPJASS, Label: "pJASS-high", Opts: oj})
	return out
}

// LowVariants returns the low-recall state-of-the-art configurations
// of Figures 3d–3e.
func (e *Env) LowVariants(t Tuning) []Variant {
	ob := e.baseOpts()
	ob.BoostF = t.FLow
	oj := e.baseOpts()
	oj.FracP = t.PLow
	return []Variant{
		{ID: AlgoPBMW, Label: "pBMW-low", Opts: ob},
		{ID: AlgoPJASS, Label: "pJASS-low", Opts: oj},
	}
}

// Variant returns a single named variant by label prefix ("Sparta-high"
// style), for ad-hoc use by cmd/queryrun.
func (e *Env) Variant(id AlgoID, mode string, t Tuning) Variant {
	switch mode {
	case "exact":
		o := e.baseOpts()
		o.Exact = true
		return Variant{ID: id, Label: string(id) + "-exact", Opts: o}
	case "low":
		for _, v := range e.LowVariants(t) {
			if v.ID == id {
				return v
			}
		}
	}
	for _, v := range e.HighVariants(t) {
		if v.ID == id {
			return v
		}
	}
	o := e.baseOpts()
	o.Exact = true
	return Variant{ID: id, Label: string(id) + "-exact", Opts: o}
}
