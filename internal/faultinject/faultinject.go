// Package faultinject turns failure into a first-class, reproducible
// test input. A Plan describes a fault schedule — transient query
// errors, added I/O latency, stuck reads, a permanently dark replica —
// and an Injector scoped to one (shard, replica) applies it
// deterministically: the same seed produces the same faults at the same
// points regardless of goroutine scheduling, so a chaos run that fails
// in CI replays bit-for-bit on a laptop.
//
// Faults inject at the layer where real systems feel them:
//
//   - I/O latency and stuck reads install as an iomodel.FaultHook, a
//     pure function of (file, block) — whether a given physical fetch
//     is slow is a property of the fetch, not of when it happens. A
//     stuck read is one charged Plan.StuckLatency, which a bound
//     reader's deadline or cancellation cuts short.
//   - Transient errors and darkness wrap the topk.Algorithm boundary
//     (simulated readers never surface I/O errors themselves), with a
//     per-attempt sequence counter so retries draw fresh decisions.
//   - Byte corruption flips one deterministic byte of an index file on
//     disk (CorruptFile); manifest verification must catch it at
//     open/promote time.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// ErrInjected is the transient error returned by a faulted attempt. It
// models the retryable failures of a remote replica (connection reset,
// overload rejection); callers distinguish it with errors.Is.
var ErrInjected = errors.New("faultinject: injected transient error")

// ErrDark is returned by every attempt on a dark replica: the backend
// is unreachable and will stay that way. It wraps ErrInjected so
// generic transient-error handling still applies; the breaker, not the
// retry loop, is what eventually routes around a dark replica.
var ErrDark = fmt.Errorf("%w (replica dark)", ErrInjected)

// Plan is a declarative fault schedule. Rates are probabilities in
// [0, 1]; the zero Plan injects nothing.
type Plan struct {
	// Seed roots every deterministic decision. Two injectors with the
	// same seed and scope make identical choices.
	Seed uint64
	// ErrRate is the probability that a query attempt fails with
	// ErrInjected (decided per attempt, so retries re-roll).
	ErrRate float64
	// LatencyRate is the probability that a physical block fetch is
	// charged Latency extra (decided per (file, block)).
	LatencyRate float64
	// Latency is the extra charge for a slow fetch.
	Latency time.Duration
	// StuckRate is the probability that a fetch hangs for StuckLatency
	// (decided per (file, block)).
	StuckRate float64
	// StuckLatency is the charge of a stuck fetch (default 50ms) — long
	// enough that the query's deadline, not the disk, ends the wait.
	StuckLatency time.Duration
	// Dark marks the scope permanently unreachable: every attempt
	// returns ErrDark and no I/O faults matter.
	Dark bool
}

// Enabled reports whether the plan can inject anything at all.
func (p Plan) Enabled() bool {
	return p.Dark || p.ErrRate > 0 || (p.LatencyRate > 0 && p.Latency > 0) || p.StuckRate > 0
}

// Injector applies one Plan to one scope (typically a single replica of
// a single shard). It is safe for concurrent use.
type Injector struct {
	plan  Plan
	scope uint64
	// seq numbers query attempts so each draws an independent error
	// decision from the schedule.
	seq atomic.Uint64
	// injectedErrs counts attempts this injector failed.
	injectedErrs atomic.Uint64
}

// New returns an injector for plan scoped to (shard, replica). The
// scope is folded into every decision, so replicas of the same shard
// fault independently under one seed.
func New(plan Plan, shard, replica int) *Injector {
	return &Injector{
		plan:  plan,
		scope: mix(plan.Seed, 0x5c0be5c0be, uint64(shard), uint64(replica)),
	}
}

// Plan returns the schedule this injector applies.
func (in *Injector) Plan() Plan { return in.plan }

// InjectedErrors reports how many query attempts this injector failed.
func (in *Injector) InjectedErrors() uint64 { return in.injectedErrs.Load() }

// BindStore installs the plan's I/O faults (latency, stuck reads) on
// the store as a FaultHook. The hook is a pure function of
// (file, block): re-fetching the same block after a cache eviction
// re-injects the same fault, which is what a genuinely slow sector
// would do. Stores with a zero-latency NoSleep config skip fault hooks
// along with all other charging.
func (in *Injector) BindStore(s *iomodel.Store) {
	if s == nil {
		return
	}
	if (in.plan.LatencyRate <= 0 || in.plan.Latency <= 0) && in.plan.StuckRate <= 0 {
		return
	}
	plan, scope := in.plan, in.scope
	if plan.StuckLatency <= 0 {
		plan.StuckLatency = 50 * time.Millisecond
	}
	s.SetFaultHook(func(file int, block int64) time.Duration {
		h := mix(scope, 0x10b10c, uint64(file), uint64(block))
		var extra time.Duration
		if plan.LatencyRate > 0 && toProb(h) < plan.LatencyRate {
			extra = plan.Latency
		}
		if plan.StuckRate > 0 && toProb(mix(h, 0x57ac4)) < plan.StuckRate {
			extra += plan.StuckLatency
		}
		return extra
	})
}

// Wrap returns alg with the plan's query-level faults applied: a dark
// scope fails every attempt with ErrDark; otherwise each attempt rolls
// against ErrRate and may fail with ErrInjected before touching the
// index. Successful attempts are passed through untouched, so results
// stay byte-identical to the unfaulted algorithm.
func (in *Injector) Wrap(alg topk.Algorithm) topk.Algorithm {
	if !in.plan.Dark && in.plan.ErrRate <= 0 {
		return alg
	}
	return &faultyAlg{inner: alg, in: in}
}

type faultyAlg struct {
	inner topk.Algorithm
	in    *Injector
}

func (f *faultyAlg) Name() string { return f.inner.Name() }

func (f *faultyAlg) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return f.SearchContext(context.Background(), q, opts)
}

func (f *faultyAlg) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	in := f.in
	if in.plan.Dark {
		in.injectedErrs.Add(1)
		return nil, topk.Stats{}, ErrDark
	}
	attempt := in.seq.Add(1)
	if toProb(mix(in.scope, 0xe44, attempt)) < in.plan.ErrRate {
		in.injectedErrs.Add(1)
		return nil, topk.Stats{}, fmt.Errorf("%w (attempt %d)", ErrInjected, attempt)
	}
	return f.inner.SearchContext(ctx, q, opts)
}

// CorruptFile flips one deterministically chosen byte of the file at
// path and reports its offset. The flip is its own inverse: corrupting
// twice with the same seed restores the original bytes, which lets
// tests damage and repair artifacts in place.
func CorruptFile(path string, seed uint64) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("faultinject: %w", err)
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("faultinject: %s is empty, nothing to corrupt", path)
	}
	off := int64(mix(seed, 0xc042, uint64(len(data))) % uint64(len(data)))
	data[off] ^= 0xa5
	info, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("faultinject: %w", err)
	}
	if err := os.WriteFile(path, data, info.Mode().Perm()); err != nil {
		return 0, fmt.Errorf("faultinject: %w", err)
	}
	return off, nil
}

// mix folds its inputs through the SplitMix64 finalizer. It is the
// single source of randomness here: every decision is a pure function
// of (seed, scope, site), never of wall-clock time or goroutine
// interleaving.
func mix(vals ...uint64) uint64 {
	var z uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		z += v + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// toProb maps a hash to a uniform float in [0, 1).
func toProb(h uint64) float64 { return float64(h>>11) / (1 << 53) }
