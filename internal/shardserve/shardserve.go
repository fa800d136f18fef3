// Package shardserve is the scatter/gather serving layer: one query,
// many independent index shards. Where sNRA partitions a single query
// across goroutines inside one index (§5.2.2), this package partitions
// the *index* — each shard is a set of replicas, each its own view with
// its own simulated store, its own algorithm instance, and optionally
// its own decoded-block cache — and serves every query by fanning it
// out to all shards concurrently through topk.FanOut, which merges the
// per-shard top-k lists into the global top-k (topk.MergeTopK).
//
// The serving concerns layered on top of the fan-out are the ones that
// dominate sharded tail latency in practice:
//
//   - Per-shard deadlines: each shard runs under the earlier of
//     Config.ShardTimeout and the query's own deadline. A shard that
//     misses its deadline contributes its anytime partial top-k (the
//     cancellation contract, per shard) and is counted in
//     Stats.ShardsDropped — the query as a whole still answers.
//   - Straggler hedging: when a shard's attempt outlives the recent
//     latency quantile, the query is re-issued to another replica; the
//     first attempt to finish wins and the loser is cancelled *and
//     joined*, so its simulated I/O is settled before the query reports
//     (Store.Unsettled()==0 holds even for abandoned work).
//   - Health accounting: consecutive replica errors trip that replica's
//     breaker; a shard whose replicas are all tripped is skipped
//     (counted as dropped) except for an occasional probe query that can
//     close a breaker again.
//
// Shards cover disjoint document ranges and score under the global
// statistics, and every exact algorithm's answer carries exact scores
// (the topk.Algorithm contract), so the k-way merge of exact parts is
// byte-identical to the single-index reference with no further pass.
package shardserve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/iomodel"
	"sparta/internal/metrics"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// Aggregate StopReasons reported by scatter/gather queries (per-shard
// reasons live in ShardRunStats.Stats.StopReason). topk.FanOut's rule
// picks one: the context's reason if the query's context ended, then
// StopPartial, then a shard's early stop (delta, oom, prob, …), then
// StopMerged.
const (
	// StopMerged: every shard delivered a complete result and none
	// stopped early.
	StopMerged = topk.StopMerged
	// StopPartial: at least one shard was dropped (deadline, error, or
	// breaker skip); the merged top-k covers the shards that answered.
	StopPartial = topk.StopPartial
)

// Factory builds one algorithm instance over one shard's view —
// how the group binds a retrieval strategy to every shard it opens.
type Factory func(view postings.View) topk.Algorithm

// Shard describes one index shard of a Group: its replica set and the
// document range it covers.
type Shard struct {
	// Name labels the shard in stats and metrics ("shard3" if empty).
	Name string
	// Replicas are the shard's opened backend copies (at least one);
	// Replicas[0] starts as the primary.
	Replicas []Replica
	// Lo, Hi record the covered document range [Lo, Hi). When Hi > Lo,
	// ResolveScores asks this shard only about documents inside it.
	Lo, Hi model.DocID
}

// HedgeConfig tunes straggler hedging.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// Quantile of the shard's recent completion latencies to wait
	// before re-issuing (default 0.95).
	Quantile float64
	// MinDelay floors the hedge delay, and is the delay used before
	// enough latency history exists (default 1ms).
	MinDelay time.Duration
}

// Config parameterizes a Group.
type Config struct {
	// IO configures the per-shard simulated stores opened by FromIndex /
	// OpenDir (nil = iomodel.DefaultConfig()). Ignored by New, which
	// receives already-opened shards.
	IO *iomodel.Config
	// CacheBytes, when positive, makes FromIndex / OpenDir attach a
	// decoded-block cache of this budget to every shard at open time —
	// the config path that actually wires the cache, unlike the
	// single-index SearcherConfig.PostingCache field. Ignored by New.
	CacheBytes int64

	// ShardTimeout bounds each shard's evaluation of one query; a shard
	// also never outlives the query's own context. Zero means no
	// per-shard timeout beyond the query context.
	ShardTimeout time.Duration

	// Hedge tunes straggler hedging.
	Hedge HedgeConfig

	// Replicas is the number of backend copies FromIndex / OpenDir open
	// per shard (default 1). Ignored by New, which receives explicit
	// replicas.
	Replicas int

	// TripAfter trips a replica's breaker after that many consecutive
	// errors; a shard is skipped (and counted dropped) only when every
	// replica is excluded. Zero disables the breaker.
	TripAfter int
	// ProbeEvery converts every ProbeEvery-th query arriving at an open
	// replica breaker into a half-open probe (default 16).
	ProbeEvery int
	// MaxProbes caps the half-open probes concurrently in flight per
	// replica (default 1); admission is CAS-serialized, so a thundering
	// herd admits exactly this many.
	MaxProbes int

	// RetryMax caps transient-error retries per shard query; each retry
	// goes to the next untried replica, and a budget larger than the
	// replica count wraps around for a fresh round (transient errors are
	// transient; the backoff has been paid). 0 means replicas-1 (try
	// every copy once); negative disables retries.
	RetryMax int
	// RetryBackoff is the wait before the first retry, doubling per
	// retry up to RetryBackoffMax, always inside the shard's deadline
	// budget (defaults 200µs / 5ms; negative RetryBackoff disables the
	// wait).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration

	// NoExactResolve has no effect: exact parts carry exact scores, so
	// the merge has no resolution pass to skip. It is kept so existing
	// configurations compile.
	NoExactResolve bool
}

// shardState is a Shard plus the group's per-shard serving state.
type shardState struct {
	Shard
	// replicas are the shard's backends; primary indexes the one that
	// takes normal traffic (promoted away from dark/corrupt replicas).
	replicas []*replicaState
	primary  atomic.Int32

	queries        atomic.Int64
	errs           atomic.Int64
	deadlineMisses atomic.Int64
	hedges         atomic.Int64
	hedgeWins      atomic.Int64
	skips          atomic.Int64
	retries        atomic.Int64
	promotions     atomic.Int64
	verifyFailures atomic.Int64
	lastVerifyErr  atomic.Pointer[error]
	promoteMu      sync.Mutex

	// lat holds the shard's recent completion latencies, for the hedge
	// delay.
	lat metrics.Window
}

// Group serves queries over a set of index shards. It implements
// topk.Algorithm (aggregate stats, with ShardsDropped populated), and
// SearchShards additionally exposes the per-shard breakdown. Safe for
// concurrent use.
type Group struct {
	cfg    Config
	shards []*shardState
	name   string
}

// New assembles a group from already-opened shards. Config.IO and
// Config.CacheBytes are ignored here — they parameterize FromIndex /
// OpenDir, which open shards themselves.
func New(cfg Config, shards ...Shard) (*Group, error) {
	if len(shards) == 0 {
		return nil, errors.New("shardserve: a group needs at least one shard")
	}
	if cfg.Hedge.Enabled {
		if cfg.Hedge.Quantile == 0 {
			cfg.Hedge.Quantile = 0.95
		}
		if cfg.Hedge.Quantile <= 0 || cfg.Hedge.Quantile >= 1 {
			return nil, fmt.Errorf("shardserve: hedge quantile must be in (0,1), got %v", cfg.Hedge.Quantile)
		}
		if cfg.Hedge.MinDelay == 0 {
			cfg.Hedge.MinDelay = time.Millisecond
		}
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 16
	}
	if cfg.MaxProbes <= 0 {
		cfg.MaxProbes = 1
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 200 * time.Microsecond
	}
	if cfg.RetryBackoff < 0 {
		cfg.RetryBackoff = 0
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 5 * time.Millisecond
	}
	g := &Group{cfg: cfg, shards: make([]*shardState, len(shards))}
	for i, sh := range shards {
		if len(sh.Replicas) == 0 {
			return nil, fmt.Errorf("shardserve: shard %d has no replicas", i)
		}
		if sh.Name == "" {
			sh.Name = fmt.Sprintf("shard%d", i)
		}
		st := &shardState{Shard: sh}
		for ri, rep := range sh.Replicas {
			if rep.Alg == nil {
				return nil, fmt.Errorf("shardserve: shard %d replica %d needs Alg", i, ri)
			}
			if rep.Name == "" {
				rep.Name = fmt.Sprintf("r%d", ri)
			}
			if rep.Cache != nil && !rep.Cache.Attached() {
				return nil, fmt.Errorf("shardserve: shard %d (%s) replica %d: cache supplied but not attached to its view", i, sh.Name, ri)
			}
			st.replicas = append(st.replicas, &replicaState{Replica: rep})
		}
		g.shards[i] = st
	}
	g.name = fmt.Sprintf("Sharded[%s×%d]", g.shards[0].replicas[0].Alg.Name(), len(g.shards))
	if r := len(g.shards[0].replicas); r > 1 {
		g.name = fmt.Sprintf("Sharded[%s×%d×r%d]", g.shards[0].replicas[0].Alg.Name(), len(g.shards), r)
	}
	return g, nil
}

// NumShards returns the shard count.
func (g *Group) NumShards() int { return len(g.shards) }

// ShardInfo returns shard i's descriptor.
func (g *Group) ShardInfo(i int) Shard { return g.shards[i].Shard }

// Unsettled sums the unpaid simulated-I/O debt across every replica
// store of every shard — zero after every query, including dropped,
// hedged, and retried attempts.
func (g *Group) Unsettled() time.Duration {
	var d time.Duration
	for _, sh := range g.shards {
		for _, r := range sh.replicas {
			if r.Store != nil {
				d += r.Store.Unsettled()
			}
		}
	}
	return d
}

// Name implements topk.Algorithm.
func (g *Group) Name() string { return g.name }

// Search implements topk.Algorithm.
func (g *Group) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return g.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm: SearchShards without the
// per-shard breakdown.
func (g *Group) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	res, st, err := g.SearchShards(ctx, q, opts)
	return res, st.Stats, err
}

// ShardRunStats is one shard's contribution to one query.
type ShardRunStats struct {
	Shard int
	Name  string
	// Stats is the winning attempt's evaluation statistics (zero when
	// the shard was skipped).
	Stats topk.Stats
	// Err is the attempt's error, if any.
	Err error
	// Results is the number of results the shard contributed to the
	// merge.
	Results int
	// Replica is the index of the replica that produced Stats (-1 when
	// the shard was skipped).
	Replica int
	// Retries counts transient-error retries this query spent on the
	// shard (each on the next untried replica).
	Retries int
	// Skipped: every replica was excluded (open breakers without a
	// probe slot, or corrupt artifacts) and no attempt ran.
	Skipped bool
	// Hedged: a hedged retry was launched; HedgeWon: it finished first.
	Hedged   bool
	HedgeWon bool
	// Dropped: the shard did not deliver a complete result (skipped,
	// error, or an anytime stop) — the per-query form of
	// Stats.ShardsDropped.
	Dropped bool
}

// ShardedStats is a scatter/gather query's statistics: the aggregate
// (what topk.Algorithm reports) plus the per-shard breakdown.
type ShardedStats struct {
	topk.Stats
	Shards []ShardRunStats
	// Hedges / HedgeWins count hedged retries launched / won by the
	// retry during this query.
	Hedges    int
	HedgeWins int
	// Retries counts transient-error replica retries during this query.
	Retries int
}

// SearchShards evaluates q over every shard concurrently and merges
// the per-shard top-k lists into the global top-k (topk.FanOut, one
// part per shard). Shards that miss their deadline, error out, or are
// skipped by an open breaker are counted in Stats.ShardsDropped; the
// merged result covers whatever the remaining shards delivered (never
// an error for per-shard failures — the anytime contract, per shard).
func (g *Group) SearchShards(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, ShardedStats, error) {
	n := len(g.shards)
	runs := make([]ShardRunStats, n)
	merged, st, err := topk.FanOut(ctx, q, opts, n, n, StopMerged, func(ctx context.Context, i int, opts topk.Options) (model.TopK, topk.Stats, error) {
		sh := g.shards[i]
		sh.queries.Add(1)
		res, run := g.runShard(ctx, i, sh, q, opts)
		runs[i] = run
		part := run.Stats
		if run.Dropped {
			part.ShardsDropped = 1
		}
		return res, part, nil
	})
	if err != nil {
		return nil, ShardedStats{}, err
	}
	out := ShardedStats{Stats: st}
	if len(q) > 0 { // FanOut runs no shard for a query with no terms
		out.Shards = runs
	}
	for _, r := range out.Shards {
		if r.Hedged {
			out.Hedges++
		}
		if r.HedgeWon {
			out.HedgeWins++
		}
		out.Retries += r.Retries
	}
	return merged, out, nil
}

// attempt is one replica evaluation's outcome.
type attempt struct {
	res   model.TopK
	st    topk.Stats
	err   error
	hedge bool
	rep   int
	probe bool
}

// runShard evaluates q on one shard under its deadline. Attempts go to
// the shard's replicas: the primary first, hedging a second attempt on
// a *different* replica when the first outlives the shard's latency
// quantile, and retrying transient errors on the next untried replica
// with capped exponential backoff inside the deadline budget. Every
// launched attempt is joined before returning, so every attempt's I/O
// settlement (ExecState.Finish → each bound view's settle func) has
// completed by the time the shard reports. The shard is skipped only
// when every replica is excluded.
func (g *Group) runShard(ctx context.Context, i int, sh *shardState, q model.Query, opts topk.Options) (model.TopK, ShardRunStats) {
	run := ShardRunStats{Shard: i, Name: sh.Name, Replica: -1}
	sctx := ctx
	if d := g.cfg.ShardTimeout; d > 0 {
		// The shard's deadline is the earlier of its own and the query's.
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	started := time.Now()
	tried := make([]bool, len(sh.replicas))
	retries := g.retryBudget(sh)
	backoff := g.cfg.RetryBackoff
	var winner attempt
	attempted := false
	for {
		r, probe := g.pickReplica(sh, tried)
		if r < 0 && attempted && winner.err != nil && retries > 0 && sctx.Err() == nil {
			// Every replica has been tried, the last answer was an error,
			// and retry budget remains: start a fresh round. The tried
			// mask only dedupes within a round — corrupt replicas and
			// open breakers stay excluded by pickReplica itself, so a
			// fruitless reset falls straight through to the break below.
			for ti := range tried {
				tried[ti] = false
			}
			r, probe = g.pickReplica(sh, tried)
		}
		if r < 0 {
			break
		}
		attempted = true
		tried[r] = true
		winner = g.raceAttempt(sctx, sh, r, probe, tried, q, opts, &run)
		if winner.err == nil || retries <= 0 || sctx.Err() != nil {
			break
		}
		// Transient error: back off (capped, inside the shard budget)
		// and re-ask the next replica.
		retries--
		sh.retries.Add(1)
		run.Retries++
		if backoff > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-sctx.Done():
				t.Stop()
			}
			backoff *= 2
			if backoff > g.cfg.RetryBackoffMax {
				backoff = g.cfg.RetryBackoffMax
			}
		}
		if sctx.Err() != nil {
			break
		}
	}
	if !attempted {
		sh.skips.Add(1)
		run.Skipped, run.Dropped = true, true
		g.maybePromote(sh)
		return nil, run
	}

	run.Stats = winner.st
	run.Err = winner.err
	run.Results = len(winner.res)
	run.Replica = winner.rep
	run.HedgeWon = winner.hedge
	if winner.hedge {
		sh.hedgeWins.Add(1)
	}
	anytimeStop := winner.st.StopReason == topk.StopCancelled || winner.st.StopReason == topk.StopDeadline
	run.Dropped = winner.err != nil || anytimeStop
	if winner.st.StopReason == topk.StopDeadline {
		sh.deadlineMisses.Add(1)
	}
	if winner.err != nil {
		sh.errs.Add(1)
	}
	if !run.Dropped {
		sh.lat.Record(time.Since(started))
	}
	g.maybePromote(sh)
	if winner.err != nil {
		// A failed shard contributes nothing; its error is recorded in
		// the run stats, not propagated (skip-and-degrade).
		return nil, run
	}
	return winner.res, run
}

// raceAttempt runs one round on replica r, hedging on a different
// healthy replica when the attempt outlives the hedge delay. The loser
// is cancelled AND joined, and both outcomes feed the replicas'
// breakers (the abandoned loser releases its probe slot but carries no
// health signal — a run cut off mid-flight says nothing about the
// replica).
func (g *Group) raceAttempt(sctx context.Context, sh *shardState, r int, probe bool, tried []bool, q model.Query, opts topk.Options, run *ShardRunStats) attempt {
	ch := make(chan attempt, 2)
	launch := func(actx context.Context, rep int, isProbe, hedge bool) {
		sh.replicas[rep].queries.Add(1)
		go func() {
			res, st, err := sh.replicas[rep].Alg.SearchContext(actx, q, opts)
			ch <- attempt{res: res, st: st, err: err, hedge: hedge, rep: rep, probe: isProbe}
		}()
	}

	pctx, pcancel := context.WithCancel(sctx)
	defer pcancel()
	launch(pctx, r, probe, false)

	var winner attempt
	if g.cfg.Hedge.Enabled {
		delay := sh.lat.Quantile(g.cfg.Hedge.Quantile)
		if delay < g.cfg.Hedge.MinDelay {
			delay = g.cfg.Hedge.MinDelay
		}
		timer := time.NewTimer(delay)
		select {
		case winner = <-ch:
			timer.Stop()
		case <-timer.C:
			hctx, hcancel := context.WithCancel(sctx)
			defer hcancel()
			hrep := r
			if h := g.pickHedge(sh, r, tried); h >= 0 {
				tried[h] = true
				hrep = h
			}
			launch(hctx, hrep, false, true)
			sh.hedges.Add(1)
			run.Hedged = true
			winner = <-ch
			// Cancel and join the losing attempt: its ExecState.Finish
			// settles its I/O before it lands here.
			pcancel()
			hcancel()
			g.account(sh, <-ch, true)
		}
	} else {
		winner = <-ch
	}
	g.account(sh, winner, false)
	return winner
}

// account feeds one attempt's outcome to its replica's breaker and
// error counters. An abandoned attempt (the joined hedge loser) only
// counts if it genuinely failed before being cancelled.
func (g *Group) account(sh *shardState, a attempt, abandoned bool) {
	rs := sh.replicas[a.rep]
	switch {
	case a.err != nil:
		rs.errs.Add(1)
		rs.br.report(g.cfg.TripAfter, a.probe, attemptFailure)
	case abandoned:
		rs.br.report(g.cfg.TripAfter, a.probe, attemptAbandoned)
	default:
		rs.br.report(g.cfg.TripAfter, a.probe, attemptSuccess)
	}
}

// retryBudget is the shard's transient-error retry allowance for one
// query.
func (g *Group) retryBudget(sh *shardState) int {
	if g.cfg.RetryMax < 0 {
		return 0
	}
	if g.cfg.RetryMax == 0 {
		return len(sh.replicas) - 1
	}
	return g.cfg.RetryMax
}

// ResolveScores computes each document's exact score for q by per-term
// random access against the primary replica view of the shard that can
// hold it (a shard whose Hi > Lo is asked only about documents in
// [Lo, Hi)), returning one score per document plus the random accesses
// charged. Views that charge simulated I/O are bound and settled here,
// never leaving debt outstanding. Exact queries do not need it — each
// shard's exact part carries exact scores; it is the server side of
// shardrpc's Resolve RPC.
func (g *Group) ResolveScores(ctx context.Context, q model.Query, docs []model.DocID) ([]model.Score, int64) {
	out := make([]model.Score, len(docs))
	var ra int64
	es := topk.NewExecState(ctx, nil)
	defer es.Finish(topk.Stats{}, nil)
	for _, sh := range g.shards {
		v := sh.replicas[sh.primary.Load()].View
		if v == nil {
			continue
		}
		v = es.BindView(v)
		for j, d := range docs {
			if sh.Hi > sh.Lo && (d < sh.Lo || d >= sh.Hi) {
				continue
			}
			for _, t := range q {
				if ts, ok := v.RandomAccess(t, d); ok {
					out[j] += ts
				}
				ra++
			}
		}
	}
	return out, ra
}

// ReplicaCounters is one replica's health and traffic snapshot — the
// exported face of the failover state machine.
type ReplicaCounters struct {
	Replica int    `json:"replica"`
	Name    string `json:"name"`
	Queries int64  `json:"queries"`
	Errors  int64  `json:"errors"`
	// State is the replica's breaker state: "closed", "open",
	// "half-open", or "corrupt" (failed artifact verification,
	// permanently excluded).
	State string `json:"state"`
	// Primary marks the replica currently taking normal traffic.
	Primary bool `json:"primary"`
}

// ShardCounters is a point-in-time snapshot of one shard's aggregate
// serving counters.
type ShardCounters struct {
	Shard          int    `json:"shard"`
	Name           string `json:"name"`
	Queries        int64  `json:"queries"`
	Errors         int64  `json:"errors"`
	DeadlineMisses int64  `json:"deadline_misses"`
	Hedges         int64  `json:"hedges"`
	HedgeWins      int64  `json:"hedge_wins"`
	Skips          int64  `json:"skips"`
	// Retries counts transient-error replica retries; Promotions counts
	// primary failovers; VerifyFailures counts replicas refused (and
	// excluded) because their artifacts failed digest verification.
	Retries         int64  `json:"retries"`
	Promotions      int64  `json:"promotions"`
	VerifyFailures  int64  `json:"verify_failures"`
	LastVerifyError string `json:"last_verify_error,omitempty"`
	// Primary is the index of the replica taking normal traffic;
	// Replicas is the per-replica breakdown.
	Primary  int               `json:"primary"`
	Replicas []ReplicaCounters `json:"replicas"`
	// Cache counters mirror the shard's decoded-block cache (zero when
	// none is attached).
	CacheHits             int64 `json:"cache_hits"`
	CacheMisses           int64 `json:"cache_misses"`
	CacheBytes            int64 `json:"cache_bytes"`
	CacheAdmissionRejects int64 `json:"cache_admission_rejects"`
	// CacheDupFillsSuppressed / CacheInFlightFills mirror the cache's
	// single-flight gate (fills served by a concurrent decode; fills
	// currently executing).
	CacheDupFillsSuppressed int64 `json:"cache_dup_fills_suppressed"`
	CacheInFlightFills      int64 `json:"cache_in_flight_fills"`
	// UnsettledNs is the shard store's unpaid I/O debt — always zero
	// between queries.
	UnsettledNs int64 `json:"unsettled_ns"`
}

// Counters returns shard i's counter snapshot.
func (g *Group) Counters(i int) ShardCounters {
	sh := g.shards[i]
	primary := int(sh.primary.Load())
	c := ShardCounters{
		Shard:          i,
		Name:           sh.Name,
		Queries:        sh.queries.Load(),
		Errors:         sh.errs.Load(),
		DeadlineMisses: sh.deadlineMisses.Load(),
		Hedges:         sh.hedges.Load(),
		HedgeWins:      sh.hedgeWins.Load(),
		Skips:          sh.skips.Load(),
		Retries:        sh.retries.Load(),
		Promotions:     sh.promotions.Load(),
		VerifyFailures: sh.verifyFailures.Load(),
		Primary:        primary,
	}
	if ep := sh.lastVerifyErr.Load(); ep != nil {
		c.LastVerifyError = (*ep).Error()
	}
	// Cache and store figures sum over the replicas.
	for ri, r := range sh.replicas {
		c.Replicas = append(c.Replicas, ReplicaCounters{
			Replica: ri,
			Name:    r.Replica.Name,
			Queries: r.queries.Load(),
			Errors:  r.errs.Load(),
			State:   r.stateName(),
			Primary: ri == primary,
		})
		if r.Cache != nil {
			cs := r.Cache.Snapshot()
			c.CacheHits += cs.Hits
			c.CacheMisses += cs.Misses
			c.CacheBytes += cs.Bytes
			c.CacheAdmissionRejects += cs.AdmissionRejects
			c.CacheDupFillsSuppressed += cs.DupFillsSuppressed
			c.CacheInFlightFills += cs.InFlightFills
		}
		if r.Store != nil {
			c.UnsettledNs += int64(r.Store.Unsettled())
		}
	}
	return c
}

// AllCounters returns every shard's counter snapshot.
func (g *Group) AllCounters() []ShardCounters {
	out := make([]ShardCounters, len(g.shards))
	for i := range g.shards {
		out[i] = g.Counters(i)
	}
	return out
}

// RegisterMetrics registers the group's per-shard counters in r under
// prefix ("<prefix>.shard.<i>"), evaluated lazily at snapshot time.
func (g *Group) RegisterMetrics(r *metrics.Registry, prefix string) {
	if prefix != "" && !strings.HasSuffix(prefix, ".") {
		prefix += "."
	}
	r.RegisterFunc(prefix+"shards", func() any { return g.NumShards() })
	for i := range g.shards {
		i := i
		r.RegisterFunc(fmt.Sprintf("%sshard.%d", prefix, i), func() any { return g.Counters(i) })
	}
}

var _ topk.Algorithm = (*Group)(nil)
