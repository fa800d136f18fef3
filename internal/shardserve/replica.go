// Replica sets: each shard serves from N opened backend copies. The
// primary replica takes normal traffic; hedged retries race a
// *different* replica (re-asking the same straggler only when no other
// copy is available); transient errors retry on the next replica with
// capped exponential backoff inside the shard's deadline budget; and a
// shard whose primary stays dark promotes a warm replica — after
// verifying the candidate's on-disk artifacts against its manifest
// digests, so injected corruption is refused at promotion, never
// served.
//
// Health is tracked per replica by a three-state circuit breaker:
//
//	closed ──TripAfter consecutive errors──▶ open
//	open ──every ProbeEvery-th query──▶ half-open
//	half-open ──probe success──▶ closed
//	half-open ──probe failure──▶ open
//
// Half-open admission is CAS-serialized: at most Config.MaxProbes
// probes are in flight at once, so a thundering herd hitting a
// recovering replica sends exactly the configured number of canaries
// and skips the rest.

package shardserve

import (
	"context"
	"sync/atomic"

	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// Resolver computes exact scores for a batch of candidate documents in
// one round trip (shardrpc.Client implements it over the wire). The
// group does not call it: exact parts arrive with exact scores.
// Implementations return exactly one score per document, in order.
type Resolver interface {
	Resolve(ctx context.Context, q model.Query, docs []model.DocID) ([]model.Score, error)
}

// Replica is one opened backend copy of a shard: its own view, its own
// simulated store (so replica failures and latencies are independent),
// and optionally its own decoded-block cache. A *remote* replica has no
// View: its Alg is a transport client.
type Replica struct {
	// Name labels the replica in counters ("r0", "r1", ... if empty).
	Name string
	// View is the replica's index view; nil for a remote replica, whose
	// index lives in another process.
	View postings.View
	// Alg evaluates queries over View (required).
	Alg topk.Algorithm
	// Resolver is accepted and not called (see Resolver).
	Resolver Resolver
	// Store, when non-nil, is the replica's simulated storage, used for
	// settlement accounting and stats.
	Store *iomodel.Store
	// Cache, when non-nil, is the replica's decoded-block cache.
	Cache *plcache.Cache
	// Verify, when non-nil, re-checks the replica's on-disk artifacts
	// against their manifest digests (merkle.VerifyDir). Promotion
	// refuses — and permanently excludes — a replica that fails it.
	Verify func() error
}

// Breaker states.
const (
	brClosed int32 = iota
	brOpen
	brHalfOpen
)

// attempt outcomes reported to a breaker.
const (
	attemptSuccess = iota
	attemptFailure
	// attemptAbandoned is the cancelled side of a hedge race: it says
	// nothing about the replica's health, but must still release any
	// probe slot it claimed.
	attemptAbandoned
)

// breaker is the per-replica circuit breaker. All transitions are on
// atomics; the only serialization is the probe-slot CAS, which is the
// point: half-open admission is exact under arbitrary concurrency.
type breaker struct {
	state      atomic.Int32
	consecErrs atomic.Int64
	// tick counts queries arriving while open; every ProbeEvery-th one
	// converts to a half-open probe.
	tick atomic.Int64
	// probes counts half-open probes in flight (≤ MaxProbes).
	probes atomic.Int32
}

// admit decides whether an attempt may proceed. When probe is true the
// caller claimed one of the MaxProbes half-open slots and must report
// the attempt's outcome exactly once, whatever happens to it.
func (b *breaker) admit(tripAfter, probeEvery, maxProbes int) (ok, probe bool) {
	if tripAfter <= 0 {
		return true, false
	}
	for {
		switch b.state.Load() {
		case brClosed:
			return true, false
		case brOpen:
			if b.tick.Add(1)%int64(probeEvery) != 0 {
				return false, false
			}
			// Probe cadence reached: go half-open and claim a slot on
			// the next spin of the loop.
			b.state.CompareAndSwap(brOpen, brHalfOpen)
		case brHalfOpen:
			for {
				p := b.probes.Load()
				if int(p) >= maxProbes {
					return false, false
				}
				if b.probes.CompareAndSwap(p, p+1) {
					return true, true
				}
			}
		}
	}
}

// report feeds one tracked attempt's outcome back. Success closes a
// probing breaker and clears the error streak; failure extends the
// streak (tripping at tripAfter) and reopens after a failed probe.
func (b *breaker) report(tripAfter int, probe bool, outcome int) {
	if tripAfter <= 0 {
		return
	}
	if probe {
		defer b.probes.Add(-1)
	}
	switch outcome {
	case attemptSuccess:
		b.consecErrs.Store(0)
		if probe {
			b.state.Store(brClosed)
		}
	case attemptFailure:
		errs := b.consecErrs.Add(1)
		if probe || errs >= int64(tripAfter) {
			b.state.Store(brOpen)
		}
	case attemptAbandoned:
		// Slot released by the deferred decrement; no health signal.
	}
}

// replicaState is a Replica plus its serving state.
type replicaState struct {
	Replica
	br      breaker
	queries atomic.Int64
	errs    atomic.Int64
	// corrupt marks a replica that failed artifact verification;
	// corrupt replicas are permanently excluded from serving.
	corrupt atomic.Bool
}

// healthy reports whether the replica can take hedges and promotions:
// artifacts intact and breaker fully closed.
func (r *replicaState) healthy() bool {
	return !r.corrupt.Load() && r.br.state.Load() == brClosed
}

// stateName renders the replica's health for counters.
func (r *replicaState) stateName() string {
	if r.corrupt.Load() {
		return "corrupt"
	}
	switch r.br.state.Load() {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// pickReplica chooses the replica for the next attempt: scanning from
// the current primary, the first untried, uncorrupted replica whose
// breaker admits the attempt. Returns -1 when every replica is
// excluded — only then is the shard skipped.
func (g *Group) pickReplica(sh *shardState, tried []bool) (int, bool) {
	n := len(sh.replicas)
	start := int(sh.primary.Load())
	for off := 0; off < n; off++ {
		i := (start + off) % n
		r := sh.replicas[i]
		if tried[i] || r.corrupt.Load() {
			continue
		}
		if ok, probe := r.br.admit(g.cfg.TripAfter, g.cfg.ProbeEvery, g.cfg.MaxProbes); ok {
			return i, probe
		}
	}
	return -1, false
}

// pickHedge chooses the replica for a hedged retry: a healthy, untried
// replica different from cur, or -1 when none exists (the hedge then
// re-asks cur, the single-replica fallback).
func (g *Group) pickHedge(sh *shardState, cur int, tried []bool) int {
	n := len(sh.replicas)
	for off := 1; off < n; off++ {
		i := (cur + off) % n
		if r := sh.replicas[i]; !tried[i] && r.healthy() {
			return i
		}
	}
	return -1
}

// maybePromote moves the shard's primary off a replica that can no
// longer serve (open breaker or corrupt artifacts) onto a warm healthy
// replica. The candidate's artifacts are verified first; one that
// fails is marked corrupt and permanently excluded — this is where
// injected byte corruption is caught instead of served. Serialized so
// one query performs the (possibly expensive) verification while
// concurrent queries keep serving from the replicas that work.
func (g *Group) maybePromote(sh *shardState) {
	needs := func() bool {
		cur := sh.replicas[sh.primary.Load()]
		return cur.corrupt.Load() || cur.br.state.Load() == brOpen
	}
	if !needs() {
		return
	}
	sh.promoteMu.Lock()
	defer sh.promoteMu.Unlock()
	if !needs() { // another query already promoted
		return
	}
	p := int(sh.primary.Load())
	n := len(sh.replicas)
	for off := 1; off < n; off++ {
		c := (p + off) % n
		cand := sh.replicas[c]
		if !cand.healthy() {
			continue
		}
		if cand.Verify != nil {
			if err := cand.Verify(); err != nil {
				cand.corrupt.Store(true)
				sh.verifyFailures.Add(1)
				sh.lastVerifyErr.Store(&err)
				continue
			}
		}
		sh.primary.Store(int32(c))
		sh.promotions.Add(1)
		return
	}
}
