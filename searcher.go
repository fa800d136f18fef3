package sparta

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"time"

	"sparta/internal/metrics"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// ErrCacheNotAttached is returned by a Searcher whose configured
// PostingCache was never attached to an index view: every lookup would
// miss, which silently reports a 0% hit rate instead of the
// misconfiguration it is. Attach the cache first (the on-disk index's
// SetPostingCache), or open shards with Config.CacheBytes, which attaches at open time.
var ErrCacheNotAttached = errors.New("sparta: SearcherConfig.PostingCache set but not attached to any index view (SetPostingCache)")

// ErrAdmissionShed is returned by a Searcher that dropped a query at
// admission under load: the concurrency limit was saturated and the
// query's remaining context budget was smaller than the observed
// admission-queue wait (SearcherConfig.ShedQuantile), so running it
// could only produce a result after its deadline. Shedding early
// returns the capacity to queries that can still meet theirs.
var ErrAdmissionShed = errors.New("sparta: query shed at admission (queue wait exceeds remaining context budget)")

// SearcherConfig parameterizes a Searcher. The zero value disables
// every knob: no timeout, unbounded concurrency, no observer.
type SearcherConfig struct {
	// Timeout bounds each query's execution. A query that exceeds it
	// returns its best-so-far partial top-k with Stats.StopReason
	// "deadline" and a nil error (the anytime contract). Zero means no
	// timeout; a caller-supplied context deadline still applies.
	Timeout time.Duration

	// MaxConcurrent caps queries executing at once. Excess queries wait
	// in admission order; a query whose context is cancelled while
	// waiting returns an empty result with StopReason "cancelled" (or
	// "deadline") and a nil error, without ever executing. Zero means
	// unbounded.
	MaxConcurrent int

	// Observer, when non-nil, receives execution events for every query
	// that does not carry its own Options.Observer.
	Observer Observer

	// PostingCache, when non-nil, is the decoded-block cache shared by
	// this searcher's queries; its hit/miss/bytes counters appear in
	// Counters(). The cache serves cursors only once attached to the
	// index view (its SetPostingCache) — this field does not attach it,
	// because the Searcher wraps an Algorithm, not the view beneath it.
	// A cache that is supplied here but never attached is a
	// misconfiguration: queries fail with ErrCacheNotAttached rather
	// than silently running uncached. (The sharded serving path attaches
	// per-shard caches itself at open time via Config.CacheBytes.)
	PostingCache *PostingCache

	// ShedQuantile enables load-aware admission: when MaxConcurrent is
	// saturated and a query carries a context deadline, the query is
	// shed (ErrAdmissionShed, StopReason "shed") if its remaining budget
	// is smaller than this quantile of recently observed admission
	// waits — it would time out in the queue, so dropping it immediately
	// frees its slot-wait for queries that can still answer in time.
	// 0 disables shedding (every query waits, as before); 0.9 sheds
	// queries whose budget is below the p90 observed wait. Queries
	// without a deadline never shed.
	ShedQuantile float64

	// BatchWindow, MaxBatch, BatchWarmView and FusedExec have no
	// effect: every query runs its algorithm on its own, and concurrent
	// queries share posting blocks through the posting cache's
	// single-flight fills instead. They are kept so existing
	// configurations compile; a Searcher with BatchWindow > 0 still
	// registers the <prefix>.batch.* counter names (see RegisterMetrics),
	// each reading 0.
	BatchWindow   time.Duration
	MaxBatch      int
	BatchWarmView View
	FusedExec     bool
}

// SearcherCounters is a point-in-time snapshot of a Searcher's
// aggregate activity.
type SearcherCounters struct {
	// Queries is the number of queries finished (admitted or not).
	Queries int64
	// Errors is the number of queries that returned a non-nil error.
	Errors int64
	// Cancelled / Deadline count queries that stopped early because
	// their context was cancelled / its deadline expired — including
	// queries cancelled while waiting for admission.
	Cancelled int64
	Deadline  int64
	// Rejected counts the subset of Cancelled+Deadline that never ran
	// because admission was interrupted.
	Rejected int64
	// Shed counts queries dropped by load-aware admission (their
	// remaining context budget was below the observed admission-wait
	// quantile; see SearcherConfig.ShedQuantile). Disjoint from
	// Rejected: shed queries return ErrAdmissionShed without waiting.
	Shed int64
	// InFlight is the number of queries currently executing or waiting
	// for admission.
	InFlight int64
	// Postings is the total posting count processed.
	Postings int64
	// TotalLatency is the summed wall-clock duration of finished
	// queries (admission wait included); TotalLatency/Queries is the
	// mean latency.
	TotalLatency time.Duration
	// CacheHits / CacheMisses / CacheBytes / CacheAdmissionRejects
	// mirror the configured PostingCache's counters (zero when none is
	// configured).
	CacheHits             int64
	CacheMisses           int64
	CacheBytes            int64
	CacheAdmissionRejects int64
	// CacheDupFillsSuppressed / CacheInFlightFills mirror the cache's
	// single-flight gate: fills served by a concurrent decode instead of
	// duplicating it, and fills currently executing.
	CacheDupFillsSuppressed int64
	CacheInFlightFills      int64
}

// CacheHitRate returns CacheHits/(CacheHits+CacheMisses), or 0 before
// any lookup.
func (c SearcherCounters) CacheHitRate() float64 {
	if c.CacheHits+c.CacheMisses == 0 {
		return 0
	}
	return float64(c.CacheHits) / float64(c.CacheHits+c.CacheMisses)
}

// Searcher wraps any Algorithm with the serving-side concerns of §5.3's
// latency SLAs: a per-query timeout, a concurrent-query admission
// limit, and aggregate counters. It implements Algorithm itself, so it
// can be dropped into the scheduler or the benchmark harness, and it is
// safe for concurrent use.
type Searcher struct {
	alg   topk.Algorithm
	cfg   SearcherConfig
	sem   chan struct{}  // nil when MaxConcurrent == 0
	waits metrics.Window // waits of recent queries that queued, for shedding

	queries   atomic.Int64
	errors    atomic.Int64
	cancelled atomic.Int64
	deadline  atomic.Int64
	rejected  atomic.Int64
	shed      atomic.Int64
	inFlight  atomic.Int64
	postings  atomic.Int64
	latencyNs atomic.Int64
}

// NewSearcher wraps alg.
func NewSearcher(alg topk.Algorithm, cfg SearcherConfig) *Searcher {
	s := &Searcher{alg: alg, cfg: cfg}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return s
}

// Drain returns at once: a query settles its I/O before it returns, so
// there is no work left to wait for. It is kept so existing callers
// compile.
func (s *Searcher) Drain() {}

// Name implements Algorithm.
func (s *Searcher) Name() string { return s.alg.Name() }

// Search implements Algorithm; it is SearchContext with a background
// context (the configured Timeout still applies).
func (s *Searcher) Search(q Query, opts Options) (TopK, Stats, error) {
	return s.SearchContext(context.Background(), q, opts)
}

// SearchContext implements Algorithm: admission under MaxConcurrent,
// then execution under the tighter of ctx and the configured Timeout.
// Cancellation — at admission or mid-query — returns a nil error with
// StopReason "cancelled" or "deadline"; errors are reserved for real
// failures (e.g. memory-budget aborts).
func (s *Searcher) SearchContext(ctx context.Context, q Query, opts Options) (TopK, Stats, error) {
	if s.cfg.PostingCache != nil && !s.cfg.PostingCache.Attached() {
		return nil, Stats{}, ErrCacheNotAttached
	}
	start := time.Now()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	if s.sem != nil {
		select {
		case s.sem <- struct{}{}: // free slot: no queue, no wait recorded
			defer func() { <-s.sem }()
		default:
			// Saturated. Load-aware admission: if the queue's recent
			// waits say this query would outlive its budget in line,
			// shed it now instead of letting it time out holding a
			// place other queries could use.
			if q := s.cfg.ShedQuantile; q > 0 {
				if dl, ok := ctx.Deadline(); ok {
					if est := s.waits.Quantile(q); est > 0 && time.Until(dl) < est {
						st := Stats{StopReason: topk.StopShed, Duration: time.Since(start)}
						s.shed.Add(1)
						s.account(st, ErrAdmissionShed)
						return model.TopK{}, st, ErrAdmissionShed
					}
				}
			}
			waitStart := time.Now()
			select {
			case s.sem <- struct{}{}:
				s.waits.Record(time.Since(waitStart))
				defer func() { <-s.sem }()
			case <-ctx.Done():
				st := Stats{StopReason: topk.StopReasonFor(ctx.Err()), Duration: time.Since(start)}
				s.rejected.Add(1)
				s.waits.Record(time.Since(waitStart))
				s.account(st, nil)
				return model.TopK{}, st, nil
			}
		}
	}

	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	if opts.Observer == nil {
		opts.Observer = s.cfg.Observer
	}

	res, st, err := s.alg.SearchContext(ctx, q, opts)
	st.Duration = time.Since(start) // admission wait included
	s.account(st, err)
	return res, st, err
}

func (s *Searcher) account(st Stats, err error) {
	s.queries.Add(1)
	s.postings.Add(st.Postings)
	s.latencyNs.Add(int64(st.Duration))
	if err != nil {
		s.errors.Add(1)
	}
	switch st.StopReason {
	case topk.StopCancelled:
		s.cancelled.Add(1)
	case topk.StopDeadline:
		s.deadline.Add(1)
	}
}

// Counters returns a snapshot of the aggregate counters. The snapshot
// is not atomic across fields (each field is individually consistent).
func (s *Searcher) Counters() SearcherCounters {
	c := SearcherCounters{
		Queries:      s.queries.Load(),
		Errors:       s.errors.Load(),
		Cancelled:    s.cancelled.Load(),
		Deadline:     s.deadline.Load(),
		Rejected:     s.rejected.Load(),
		Shed:         s.shed.Load(),
		InFlight:     s.inFlight.Load(),
		Postings:     s.postings.Load(),
		TotalLatency: time.Duration(s.latencyNs.Load()),
	}
	if s.cfg.PostingCache != nil {
		cs := s.cfg.PostingCache.Snapshot()
		c.CacheHits, c.CacheMisses, c.CacheBytes = cs.Hits, cs.Misses, cs.Bytes
		c.CacheAdmissionRejects = cs.AdmissionRejects
		c.CacheDupFillsSuppressed = cs.DupFillsSuppressed
		c.CacheInFlightFills = cs.InFlightFills
	}
	return c
}

// RegisterMetrics registers the searcher's counters in r under prefix
// ("<prefix>.queries", "<prefix>.cache_hit_rate", ...), evaluated
// lazily at snapshot time.
func (s *Searcher) RegisterMetrics(r *metrics.Registry, prefix string) {
	if prefix != "" && !strings.HasSuffix(prefix, ".") {
		prefix += "."
	}
	r.RegisterFunc(prefix+"queries", func() any { return s.queries.Load() })
	r.RegisterFunc(prefix+"errors", func() any { return s.errors.Load() })
	r.RegisterFunc(prefix+"cancelled", func() any { return s.cancelled.Load() })
	r.RegisterFunc(prefix+"deadline", func() any { return s.deadline.Load() })
	r.RegisterFunc(prefix+"rejected", func() any { return s.rejected.Load() })
	r.RegisterFunc(prefix+"shed", func() any { return s.shed.Load() })
	r.RegisterFunc(prefix+"in_flight", func() any { return s.inFlight.Load() })
	r.RegisterFunc(prefix+"postings", func() any { return s.postings.Load() })
	r.RegisterFunc(prefix+"latency_total_ns", func() any { return s.latencyNs.Load() })
	r.RegisterFunc(prefix+"mean_latency_ns", func() any {
		q := s.queries.Load()
		if q == 0 {
			return int64(0)
		}
		return s.latencyNs.Load() / q
	})
	if s.cfg.PostingCache != nil {
		r.RegisterFunc(prefix+"cache", func() any { return s.cfg.PostingCache.Snapshot() })
		r.RegisterFunc(prefix+"cache_hit_rate", func() any { return s.Counters().CacheHitRate() })
	}
	if s.cfg.BatchWindow > 0 {
		for _, name := range batchCounterNames {
			r.RegisterFunc(prefix+"batch."+name, func() any { return int64(0) })
		}
	}
}

// batchCounterNames are the counters a batching Searcher once exported
// under <prefix>.batch. They are registered, each reading 0, for
// dashboards and tools that still read them.
var batchCounterNames = []string{
	"batches", "batched_queries", "coalesced", "fused_batches",
	"warmed_blocks", "fused_members", "fused_fallback_members",
	"fused_traversals", "fused_blocks_saved", "detach_early",
	"fused_block_skips", "fused_ub_stops", "fused_resolve_ra",
}

var _ topk.Algorithm = (*Searcher)(nil)
