// Package batchexec coalesces concurrent queries into batches over one
// algorithm — the multi-query execution layer the serving stack runs
// per shard. Batching is driven by what is in flight, not by the clock:
//
//   - A query that finds the executor idle (no query executing, no
//     batch collecting) runs at once, on the goroutine that submitted
//     it: there is nobody to batch with and nothing to wait for.
//   - A query that arrives while others are executing becomes the
//     leader of a new batch, and queries arriving after it join that
//     batch. The batch launches at the first of: it is full, the window
//     expired, the leader's context ended, or the executor went idle
//     (the last executing query left). So the window is an upper bound
//     that is only ever waited out while the CPUs have other work.
//
// A launched batch of two or more runs jointly:
//
//   - One warm-up pass covers the terms shared by two or more member
//     queries (postings.TermWarmer), so the batch pays a shared term's
//     leading-block fetches once instead of once per member.
//   - Every posting-block miss goes through the plcache single-flight
//     gate (the views were rewired in this layer's PR), so members that
//     race on the same block share one fetch+decode.
//   - Members execute concurrently and return individually; each member
//     settles its own readers through the usual topk.ExecState path, and
//     the warm-up pass settles its readers when it completes, so
//     Store.Unsettled()==0 holds once a batch has drained — on every
//     completion path, including cancellation or deadline expiry of any
//     member mid-batch.
//
// Batching trades a bounded wait under load (≤ Window, and none on an
// idle executor) for throughput: on a Zipfian query log concurrent
// queries overlap heavily in their hot terms, and the shared warm-up
// plus single-flight fills remove the duplicated fetch+decode work that
// otherwise scales with concurrency.
//
// The zero Config (Window == 0) disables batching entirely: Search and
// SearchContext pass straight through to the wrapped algorithm with no
// added goroutines, allocation, or reordering, preserving the unbatched
// serving semantics exactly.
package batchexec

import (
	"context"
	"time"

	"sync"
	"sync/atomic"

	"sparta/internal/metrics"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// Config parameterizes an Executor.
type Config struct {
	// Window is the longest a batch leader collects co-arriving queries
	// before launching the batch — an upper bound, waited only while
	// other queries are executing (see the package comment). Zero
	// disables batching (pass-through).
	Window time.Duration
	// MaxBatch caps the batch size; a full batch launches without
	// waiting out the window. Default 16. MaxBatch 1 runs every query at
	// once in its own batch (counted, but nothing coalesces — the
	// degenerate case tests pin).
	MaxBatch int
	// WarmBlocks is how many leading blocks per term region the batch
	// warm-up pass prefetches for terms shared by ≥ 2 member queries.
	// Default 2; negative disables warm-up.
	WarmBlocks int
	// Warmer runs the warm-up pass — normally the batch's disk-resident
	// view. Nil disables warm-up (single-flight fills still apply).
	Warmer postings.TermWarmer
	// Fused, when non-nil, hands every multi-member batch to the fused
	// multi-query engine (package fusedexec): terms shared by ≥ 2
	// members are traversed once, scoring every subscribed member in a
	// single pass; singleton terms and unfusable members run through
	// the wrapped algorithm inside the runner. Fused batches skip the
	// warm-up pass — the fused traversal is itself the shared pass, and
	// its fills go through the hot single-flight cache gate. Nil (the
	// default) keeps the per-member execution path.
	Fused FusedRunner
}

// BatchMember is one query of a closed batch handed to a FusedRunner.
type BatchMember struct {
	// Ctx is the member's own context: its cancellation or deadline
	// affects this member only (fate isolation).
	Ctx context.Context
	// Query and Opts are the member's submission, verbatim.
	Query model.Query
	Opts  topk.Options

	r        *request
	once     sync.Once
	finished atomic.Bool
}

// Finish delivers the member's result and releases its submitter.
// A FusedRunner must call it exactly once per member on every path;
// extra calls are ignored, so defensive cleanup paths may finish again
// safely.
func (m *BatchMember) Finish(res model.TopK, st topk.Stats, err error) {
	m.once.Do(func() {
		m.r.res, m.r.st, m.r.err = res, st, err
		m.finished.Store(true)
		close(m.r.done)
	})
}

// FusedRunner executes all members of one closed batch jointly. RunBatch
// must call each member's Finish before it returns (members may finish
// individually, long before the whole batch completes) and must not
// retain members afterwards. Implementations are responsible for the
// same settlement contract as the per-member path: when RunBatch
// returns, every simulated-I/O charge its traversals accrued has been
// settled.
type FusedRunner interface {
	RunBatch(members []*BatchMember)
}

// withDefaults normalizes zero values.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.WarmBlocks == 0 {
		c.WarmBlocks = 2
	}
	return c
}

// Counters is a snapshot of an Executor's batching activity.
type Counters struct {
	// Batches is the number of batches launched.
	Batches int64 `json:"batches"`
	// BatchedQueries is the number of queries executed through batches.
	BatchedQueries int64 `json:"batched_queries"`
	// Coalesced counts queries that joined another query's collection
	// window (BatchedQueries − Batches, the coalesce hits).
	Coalesced int64 `json:"coalesced"`
	// Immediate counts queries that ran without collecting: they found
	// the executor idle (or MaxBatch is 1) and are batches of one.
	Immediate int64 `json:"immediate"`
	// MaxBatchObserved is the largest batch launched.
	MaxBatchObserved int64 `json:"max_batch_observed"`
	// SharedTerms counts terms warmed because ≥ 2 members of one batch
	// queried them.
	SharedTerms int64 `json:"shared_terms"`
	// WarmedBlocks counts block fills performed by warm-up passes.
	WarmedBlocks int64 `json:"warmed_blocks"`
	// WarmSkippedTerms counts shared terms not warmed because every
	// subscriber's remaining deadline budget was below the observed
	// per-block warm fill latency — the blocks would have been charged
	// for members that stop before reading them.
	WarmSkippedTerms int64 `json:"warm_skipped_terms"`
	// FusedBatches counts batches executed through the fused runner.
	FusedBatches int64 `json:"fused_batches"`
}

// MeanBatch returns BatchedQueries/Batches, or 0 before any batch.
func (c Counters) MeanBatch() float64 {
	if c.Batches == 0 {
		return 0
	}
	return float64(c.BatchedQueries) / float64(c.Batches)
}

// Executor wraps a topk.Algorithm with query coalescing. It implements
// topk.Algorithm itself, so it drops transparently between a serving
// wrapper and the algorithm it batches for. Safe for concurrent use.
type Executor struct {
	alg topk.Algorithm
	cfg Config

	mu      sync.Mutex
	open    *batch // collecting batch, nil when none
	running int    // queries executing: admitted alone or in a launched batch

	// active tracks every executing query and warm-up pass for Drain.
	active sync.WaitGroup

	batches      atomic.Int64
	queries      atomic.Int64
	coalesced    atomic.Int64
	immediate    atomic.Int64
	maxBatch     atomic.Int64
	sharedTerms  atomic.Int64
	warmedBlocks atomic.Int64
	warmSkipped  atomic.Int64
	fusedBatches atomic.Int64
	warmBlockNs  atomic.Int64 // EWMA of per-block warm fill latency
}

var _ topk.Algorithm = (*Executor)(nil)

// request is one query riding a batch. The runner publishes res/st/err
// and then closes done; a submitter that is not itself the runner reads
// them only after done.
type request struct {
	ctx  context.Context
	q    model.Query
	opts topk.Options
	done chan struct{}
	res  model.TopK
	st   topk.Stats
	err  error
}

// batch is one collection window. launch is closed (once, by whoever
// detaches the batch from e.open) to end the collection before the
// leader's timer does.
type batch struct {
	reqs   []*request
	launch chan struct{}
}

// New wraps alg under cfg.
func New(alg topk.Algorithm, cfg Config) *Executor {
	return &Executor{alg: alg, cfg: cfg.withDefaults()}
}

// Name implements topk.Algorithm: an Executor reports as the algorithm
// it batches for.
func (e *Executor) Name() string { return e.alg.Name() }

// Search implements topk.Algorithm.
func (e *Executor) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return e.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm. With batching enabled the
// query runs at once if the executor is idle, and otherwise joins the
// collecting batch (or starts one and leads it); it returns when its
// own evaluation completes — members of one batch return individually,
// not when the batch drains.
func (e *Executor) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	if e.cfg.Window <= 0 {
		return e.alg.SearchContext(ctx, q, opts)
	}
	e.mu.Lock()
	if b := e.open; b != nil {
		// Join the collecting batch.
		r := &request{ctx: ctx, q: q, opts: opts, done: make(chan struct{})}
		b.reqs = append(b.reqs, r)
		e.coalesced.Add(1)
		if len(b.reqs) >= e.cfg.MaxBatch {
			e.launchLocked(b)
		}
		e.mu.Unlock()
		<-r.done
		return r.res, r.st, r.err
	}
	if e.running == 0 || e.cfg.MaxBatch == 1 {
		// Nobody to batch with: a batch of one, here and now.
		e.running++
		e.active.Add(1)
		e.mu.Unlock()
		e.immediate.Add(1)
		return e.runAlone(ctx, q, opts)
	}
	// Lead a new batch while the executing queries keep the CPUs busy.
	r := &request{ctx: ctx, q: q, opts: opts, done: make(chan struct{})}
	b := &batch{reqs: []*request{r}, launch: make(chan struct{})}
	e.open = b
	e.mu.Unlock()

	timer := time.NewTimer(e.cfg.Window)
	select {
	case <-timer.C:
	case <-b.launch: // full, or the executor went idle
	case <-ctx.Done():
		// The leader's context ended during collection: launch whatever
		// has gathered now. The leader's own evaluation returns its
		// cancelled partial immediately; joined members run normally.
	}
	timer.Stop()
	e.mu.Lock()
	if e.open == b {
		e.launchLocked(b)
	}
	e.mu.Unlock()

	switch {
	case len(b.reqs) == 1:
		return e.runAlone(ctx, q, opts)
	case e.cfg.Fused != nil:
		e.count(len(b.reqs))
		e.fusedBatches.Add(1)
		go e.runFused(b.reqs)
		<-r.done
	default:
		e.count(len(b.reqs))
		e.warm(b.reqs)
		for _, m := range b.reqs[1:] {
			go e.runMember(m)
		}
		e.runMember(r) // the leader's own, on its own goroutine
	}
	return r.res, r.st, r.err
}

// launchLocked ends b's collection: nothing joins it any more, its
// members count as executing from this instant, and its leader (who
// runs the launch) is released. Called with e.mu held and e.open == b.
func (e *Executor) launchLocked(b *batch) {
	e.open = nil
	e.running += len(b.reqs)
	e.active.Add(len(b.reqs))
	close(b.launch)
}

// leave records that n queries finished executing. If they were the
// last and a batch is collecting, the batch launches: what it was
// waiting behind is gone.
func (e *Executor) leave(n int) {
	e.mu.Lock()
	e.running -= n
	if e.running == 0 && e.open != nil {
		e.launchLocked(e.open)
	}
	e.mu.Unlock()
	e.active.Add(-n)
}

// count records one launched batch of n.
func (e *Executor) count(n int) {
	e.batches.Add(1)
	e.queries.Add(int64(n))
	for {
		cur := e.maxBatch.Load()
		if int64(n) <= cur || e.maxBatch.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
}

// runAlone executes a batch of one on the calling goroutine.
func (e *Executor) runAlone(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	defer e.leave(1)
	e.count(1)
	return e.alg.SearchContext(ctx, q, opts)
}

// runMember executes one member of a multi-member batch and releases
// its submitter.
func (e *Executor) runMember(r *request) {
	defer e.leave(1)
	defer close(r.done)
	r.res, r.st, r.err = e.alg.SearchContext(r.ctx, r.q, r.opts)
}

// runFused hands a multi-member batch to the fused runner; members
// release their submitters individually through Finish.
func (e *Executor) runFused(reqs []*request) {
	defer e.leave(len(reqs))
	members := make([]*BatchMember, len(reqs))
	for i, r := range reqs {
		members[i] = &BatchMember{Ctx: r.ctx, Query: r.q, Opts: r.opts, r: r}
	}
	e.cfg.Fused.RunBatch(members)
	// Defensive: a runner that missed a member must not leave its
	// submitter blocked forever.
	for _, m := range members {
		if !m.finished.Load() {
			m.Finish(e.alg.SearchContext(m.Ctx, m.Query, m.Opts))
		}
	}
}

// warm starts the shared warm-up pass of a multi-member batch, when its
// members overlap on a warmable term. It returns without waiting.
func (e *Executor) warm(reqs []*request) {
	if e.cfg.Warmer == nil || e.cfg.WarmBlocks <= 0 {
		return
	}
	shared := e.warmableTerms(reqs)
	if len(shared) == 0 {
		return
	}
	e.sharedTerms.Add(int64(len(shared)))
	// Warm concurrently with the members: their cursors join the warm
	// pass's in-flight fills through the single-flight gate instead of
	// waiting for the whole pass. Bound to the leader's context so an
	// abandoned batch stops prefetching.
	warmCtx := reqs[0].ctx
	e.active.Add(1)
	go func() {
		defer e.active.Done()
		start := time.Now()
		filled := e.cfg.Warmer.WarmTerms(warmCtx, shared, e.cfg.WarmBlocks)
		e.warmedBlocks.Add(int64(filled))
		if filled > 0 {
			e.observeWarmLatency(time.Since(start) / time.Duration(filled))
		}
	}()
}

// observeWarmLatency folds one warm pass's mean per-block fill latency
// into the running estimate (EWMA, α = 1/4) that warmableTerms compares
// deadline budgets against.
func (e *Executor) observeWarmLatency(perBlock time.Duration) {
	for {
		old := e.warmBlockNs.Load()
		next := int64(perBlock)
		if old > 0 {
			next = old + (int64(perBlock)-old)/4
		}
		if e.warmBlockNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// warmableTerms returns the terms queried by at least two distinct
// members of the batch — the overlap the warm-up pass covers — minus
// terms whose every subscriber carries a deadline budget below the
// observed per-block warm fill latency: those subscribers stop at their
// deadlines before their cursors could reach the warmed blocks, so
// warming only charges the store for blocks nobody reads. A subscriber
// without a deadline keeps its terms unconditionally warmable, and
// until a warm pass has been timed the estimate is zero and nothing is
// skipped.
func (e *Executor) warmableTerms(reqs []*request) []model.TermID {
	est := time.Duration(e.warmBlockNs.Load())
	now := time.Now()
	type sub struct {
		n         int
		unbounded bool
		best      time.Duration // max remaining budget among bounded subscribers
	}
	subs := make(map[model.TermID]*sub)
	for _, r := range reqs {
		budget, bounded := time.Duration(0), false
		if dl, ok := r.ctx.Deadline(); ok {
			budget, bounded = dl.Sub(now), true
		}
		seen := make(map[model.TermID]struct{}, len(r.q))
		for _, t := range r.q {
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			s := subs[t]
			if s == nil {
				s = &sub{}
				subs[t] = s
			}
			s.n++
			if !bounded {
				s.unbounded = true
			} else if budget > s.best {
				s.best = budget
			}
		}
	}
	var out []model.TermID
	for t, s := range subs {
		if s.n < 2 {
			continue
		}
		if est > 0 && !s.unbounded && s.best < est {
			e.warmSkipped.Add(1)
			continue
		}
		out = append(out, t)
	}
	return out
}

// Drain blocks until every query admitted so far — alone or in a batch
// — and every warm-up pass has completed. Call it when no SearchContext calls
// are being submitted (shutdown, test assertions): once Drain returns,
// all batch I/O is settled, so Store.Unsettled() == 0.
func (e *Executor) Drain() { e.active.Wait() }

// FusedRunner returns the configured fused runner (nil when the fused
// path is disabled) — aggregation layers use it to reach the engine's
// own counters.
func (e *Executor) FusedRunner() FusedRunner { return e.cfg.Fused }

// Counters returns a snapshot of the executor's batching counters.
func (e *Executor) Counters() Counters {
	return Counters{
		Batches:          e.batches.Load(),
		BatchedQueries:   e.queries.Load(),
		Coalesced:        e.coalesced.Load(),
		Immediate:        e.immediate.Load(),
		MaxBatchObserved: e.maxBatch.Load(),
		SharedTerms:      e.sharedTerms.Load(),
		WarmedBlocks:     e.warmedBlocks.Load(),
		WarmSkippedTerms: e.warmSkipped.Load(),
		FusedBatches:     e.fusedBatches.Load(),
	}
}

// RegisterMetrics exposes the batching counters on r under prefix
// (e.g. "serve.sparta.batch").
func (e *Executor) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.RegisterFunc(prefix+".batches", func() any { return e.batches.Load() })
	r.RegisterFunc(prefix+".batched_queries", func() any { return e.queries.Load() })
	r.RegisterFunc(prefix+".coalesced", func() any { return e.coalesced.Load() })
	r.RegisterFunc(prefix+".immediate", func() any { return e.immediate.Load() })
	r.RegisterFunc(prefix+".max_batch", func() any { return e.maxBatch.Load() })
	r.RegisterFunc(prefix+".mean_batch", func() any { return e.Counters().MeanBatch() })
	r.RegisterFunc(prefix+".shared_terms", func() any { return e.sharedTerms.Load() })
	r.RegisterFunc(prefix+".warmed_blocks", func() any { return e.warmedBlocks.Load() })
	r.RegisterFunc(prefix+".warm_skipped_terms", func() any { return e.warmSkipped.Load() })
	if e.cfg.Fused != nil {
		r.RegisterFunc(prefix+".fused_batches", func() any { return e.fusedBatches.Load() })
		// The fused engine exports its own counters (fused_terms,
		// fused_members, detach_early, fused_blocks_saved, ...) under the
		// same prefix when it can.
		if m, ok := e.cfg.Fused.(interface {
			RegisterMetrics(*metrics.Registry, string)
		}); ok {
			m.RegisterMetrics(r, prefix)
		}
	}
}
