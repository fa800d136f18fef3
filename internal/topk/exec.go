// Query-execution layer: the per-query cancellation / deadline state
// every algorithm threads through its posting loops, and the Observer
// hook interface that exposes a query's lifecycle to serving
// infrastructure (tracing, metrics, admission control).
//
// All of the paper's algorithms are anytime at heart — Sparta's own
// stopping rule is a heap-idle timeout (§4) — so cancellation here is
// not an error path: an interrupted query returns its best-so-far
// partial top-k with Stats.StopReason set to StopCancelled or
// StopDeadline, exactly like a Δ stop, just triggered from outside.

package topk

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/model"
	"sparta/internal/postings"
)

// Stop reasons reported by externally-interrupted queries.
const (
	// StopCancelled: the query's context was cancelled mid-evaluation.
	StopCancelled = "cancelled"
	// StopDeadline: the query's context deadline expired.
	StopDeadline = "deadline"
	// StopShed: load-aware admission dropped the query before it ran —
	// its remaining context budget was smaller than the observed
	// admission-queue wait, so executing it could only produce a result
	// after its deadline.
	StopShed = "shed"
)

// Observer receives one query's execution events. Implementations must
// be safe for concurrent use: the parallel algorithms emit events from
// many workers at once. All methods are called synchronously on hot-ish
// paths — keep them cheap (counters, ring buffers), never blocking.
type Observer interface {
	// QueryStart is called once, before evaluation begins.
	QueryStart(q model.Query, opts Options)
	// QueryFinish is called once, after evaluation ends (also on error
	// and cancellation), with the final statistics.
	QueryFinish(st Stats, err error)
	// SegmentScheduled is called when a worker begins a unit of
	// scheduled work: a posting-list segment in Sparta, pRA, pNRA, JASS
	// and pJASS (the term index), a document-range job in pBMW and pWAND
	// (the job index), a partition in sNRA (the partition index). RA,
	// NRA, WAND, BMW and MaxScore schedule no work and never call it.
	SegmentScheduled(term int)
	// HeapUpdate is called when a document enters the top-k heap.
	HeapUpdate(doc model.DocID, score model.Score)
	// CleanerPass is called after each cleaner rebuild (Sparta) with
	// the kept and dropped candidate counts.
	CleanerPass(kept, dropped int)
	// IOFetch is called for every physical block fetch of the simulated
	// storage layer, with the latency charged.
	IOFetch(wait time.Duration)
	// CacheLookup is called for every app-level posting-cache lookup a
	// charged cursor performs (a hit serves the decoded block without
	// touching simulated storage).
	CacheLookup(hit bool)
}

// NopObserver is the no-op default.
type NopObserver struct{}

func (NopObserver) QueryStart(model.Query, Options)     {}
func (NopObserver) QueryFinish(Stats, error)            {}
func (NopObserver) SegmentScheduled(int)                {}
func (NopObserver) HeapUpdate(model.DocID, model.Score) {}
func (NopObserver) CleanerPass(int, int)                {}
func (NopObserver) IOFetch(time.Duration)               {}
func (NopObserver) CacheLookup(bool)                    {}

var _ Observer = NopObserver{}

// RecordingObserver counts every event; safe for concurrent use. The
// zero value is ready.
type RecordingObserver struct {
	queries       atomic.Int64
	finishes      atomic.Int64
	segments      atomic.Int64
	heapUpdates   atomic.Int64
	cleanerPasses atomic.Int64
	ioFetches     atomic.Int64
	ioWaitNs      atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64

	mu        sync.Mutex
	lastStats Stats
	lastErr   error
}

func (r *RecordingObserver) QueryStart(model.Query, Options) { r.queries.Add(1) }

func (r *RecordingObserver) QueryFinish(st Stats, err error) {
	r.finishes.Add(1)
	r.mu.Lock()
	r.lastStats, r.lastErr = st, err
	r.mu.Unlock()
}

func (r *RecordingObserver) SegmentScheduled(int)                { r.segments.Add(1) }
func (r *RecordingObserver) HeapUpdate(model.DocID, model.Score) { r.heapUpdates.Add(1) }
func (r *RecordingObserver) CleanerPass(int, int)                { r.cleanerPasses.Add(1) }

func (r *RecordingObserver) IOFetch(wait time.Duration) {
	r.ioFetches.Add(1)
	r.ioWaitNs.Add(int64(wait))
}

func (r *RecordingObserver) CacheLookup(hit bool) {
	if hit {
		r.cacheHits.Add(1)
	} else {
		r.cacheMisses.Add(1)
	}
}

// Queries returns the number of QueryStart events.
func (r *RecordingObserver) Queries() int64 { return r.queries.Load() }

// Finishes returns the number of QueryFinish events.
func (r *RecordingObserver) Finishes() int64 { return r.finishes.Load() }

// Segments returns the number of SegmentScheduled events.
func (r *RecordingObserver) Segments() int64 { return r.segments.Load() }

// HeapUpdates returns the number of HeapUpdate events.
func (r *RecordingObserver) HeapUpdates() int64 { return r.heapUpdates.Load() }

// CleanerPasses returns the number of CleanerPass events.
func (r *RecordingObserver) CleanerPasses() int64 { return r.cleanerPasses.Load() }

// IOFetches returns the number of IOFetch events.
func (r *RecordingObserver) IOFetches() int64 { return r.ioFetches.Load() }

// IOWait returns the total simulated I/O latency observed.
func (r *RecordingObserver) IOWait() time.Duration { return time.Duration(r.ioWaitNs.Load()) }

// CacheHits returns the number of posting-cache hits observed.
func (r *RecordingObserver) CacheHits() int64 { return r.cacheHits.Load() }

// CacheMisses returns the number of posting-cache misses observed.
func (r *RecordingObserver) CacheMisses() int64 { return r.cacheMisses.Load() }

// Last returns the most recent QueryFinish payload.
func (r *RecordingObserver) Last() (Stats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastStats, r.lastErr
}

var _ Observer = (*RecordingObserver)(nil)

// ExecState is one query evaluation's execution context: it turns a
// context.Context's cancellation into a flag cheap enough to consult in
// posting-loop hot paths, and fans Observer events out from the
// algorithm internals.
//
// Cost model: a watcher goroutine (spawned only when the context is
// cancellable at all) flips an atomic bool the moment the context is
// done, so the per-posting check — Stopped() — is a single read of a
// rarely-written cache line. Algorithms may still amortize further and
// check only every few postings or once per segment; both are fine,
// the bound on cancellation latency is one segment of work plus one
// simulated I/O wait (iomodel sleeps wake early on the same context).
//
// A nil *ExecState is valid and behaves like a background context with
// no observer, so internal helpers (ta.RunNRA) accept it freely.
type ExecState struct {
	ctx       context.Context
	obs       Observer
	observing bool

	stopped   atomic.Bool
	reason    atomic.Value // string; written before stopped is set
	closeCh   chan struct{}
	closeOnce sync.Once

	settleMu sync.Mutex
	settlers []func() // bound views' settle funcs: possibly-unpaid I/O
}

// NewExecState creates the execution state for one query under ctx.
// A nil ctx means context.Background(); a nil obs means no observation.
// The caller must call Finish exactly once when the query ends (it
// releases the deadline watcher).
func NewExecState(ctx context.Context, obs Observer) *ExecState {
	if ctx == nil {
		ctx = context.Background()
	}
	observing := obs != nil
	if !observing {
		obs = NopObserver{}
	} else if _, nop := obs.(NopObserver); nop {
		observing = false
	}
	e := &ExecState{ctx: ctx, obs: obs, observing: observing, closeCh: make(chan struct{})}
	if done := ctx.Done(); done != nil {
		if err := ctx.Err(); err != nil {
			e.markStopped(err) // pre-cancelled: no watcher needed
		} else {
			go e.watch(done)
		}
	}
	return e
}

// watch flips the stopped flag as soon as the context is done, so hot
// loops only ever pay an atomic load.
func (e *ExecState) watch(done <-chan struct{}) {
	select {
	case <-done:
		e.markStopped(e.ctx.Err())
	case <-e.closeCh:
	}
}

func (e *ExecState) markStopped(err error) {
	e.reason.Store(StopReasonFor(err))
	e.stopped.Store(true)
}

// StopReasonFor maps a context error to the Stats.StopReason
// vocabulary: StopDeadline for an expired deadline, else StopCancelled.
func StopReasonFor(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCancelled
}

// Context returns the query's context (never nil).
func (e *ExecState) Context() context.Context {
	if e == nil {
		return context.Background()
	}
	return e.ctx
}

// Stopped reports whether the query's context has been cancelled or
// its deadline has expired. This is the hot-path check: one atomic
// load, no syscalls, no time lookups.
func (e *ExecState) Stopped() bool {
	return e != nil && e.stopped.Load()
}

// StopReason returns StopCancelled or StopDeadline once Stopped, else
// the empty string.
func (e *ExecState) StopReason() string {
	if e == nil || !e.stopped.Load() {
		return ""
	}
	return e.reason.Load().(string)
}

// Body is one algorithm's traversal of q: it reads view, already bound
// to es, under opts, already validated and defaulted, and reports its
// own stop reasons. It runs only for a query with terms.
type Body func(es *ExecState, view postings.View, q model.Query, opts Options) (model.TopK, Stats, error)

// Run is the one query lifecycle every Algorithm's SearchContext goes
// through, around the algorithm's body:
//  1. validate opts (an invalid query returns Validate's error and
//     emits nothing), then fill their defaults;
//  2. create the ExecState and emit QueryStart;
//  3. start the clock and the recall probe;
//  4. run body over view bound to the ExecState; a query with no terms
//     has nothing to read and is answered empty, stopped "exhausted";
//  5. a stop reason body left empty becomes the context's, else
//     "exhausted";
//  6. Duration is the wall time from the clock's start, before the
//     settlement below;
//  7. the probe records its final point, unless body failed;
//  8. Finish settles the bound views and emits QueryFinish.
func Run(ctx context.Context, q model.Query, opts Options, view postings.View, body Body) (model.TopK, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	opts = opts.WithDefaults()
	es := NewExecState(ctx, opts.Observer)
	es.Begin(q, opts)
	start := time.Now()
	if opts.Probe != nil {
		opts.Probe.Start()
	}
	res, st, err := model.TopK{}, Stats{}, error(nil)
	if len(q) > 0 {
		res, st, err = body(es, es.BindView(view), q, opts)
	}
	if st.StopReason == "" {
		if st.StopReason = es.StopReason(); st.StopReason == "" {
			st.StopReason = "exhausted"
		}
	}
	st.Duration = time.Since(start)
	if err == nil && opts.Probe != nil {
		opts.Probe.Final(res)
	}
	es.Finish(st, err)
	return res, st, err
}

// Begin emits the QueryStart event.
func (e *ExecState) Begin(q model.Query, opts Options) {
	if e != nil && e.observing {
		e.obs.QueryStart(q, opts)
	}
}

// Finish releases the deadline watcher, settles any outstanding I/O
// charges of bound views, and emits the QueryFinish event. Call
// exactly once, when the evaluation ends (any path). Every algorithm
// joins its workers before returning, so by the time Finish runs no
// goroutine still touches the bound cursors — the precondition a
// bound view's settle func requires.
func (e *ExecState) Finish(st Stats, err error) {
	if e == nil {
		return
	}
	e.closeOnce.Do(func() { close(e.closeCh) })
	e.settleMu.Lock()
	settlers := e.settlers
	e.settlers = nil
	e.settleMu.Unlock()
	for _, settle := range settlers {
		settle()
	}
	if e.observing {
		e.obs.QueryFinish(st, err)
	}
}

// SegmentScheduled emits the segment event.
func (e *ExecState) SegmentScheduled(term int) {
	if e != nil && e.observing {
		e.obs.SegmentScheduled(term)
	}
}

// HeapUpdate emits the heap-insert event.
func (e *ExecState) HeapUpdate(doc model.DocID, score model.Score) {
	if e != nil && e.observing {
		e.obs.HeapUpdate(doc, score)
	}
}

// CleanerPass emits the cleaner event.
func (e *ExecState) CleanerPass(kept, dropped int) {
	if e != nil && e.observing {
		e.obs.CleanerPass(kept, dropped)
	}
}

// BindView binds v to the execution state (postings.View's BindExec):
// on a view that charges simulated I/O, waits end early on cancellation
// — the natural cancellation point for disk-resident queries — and
// physical fetches flow to the observer. An in-memory view returns
// itself.
func (e *ExecState) BindView(v postings.View) postings.View {
	if e == nil {
		return v
	}
	// Even uncancellable, unobserved queries bind: the bound view tracks
	// its readers so Finish can settle I/O charges that early-terminating
	// algorithms would otherwise abandon unpaid.
	var onIO func(time.Duration)
	var onCache func(bool)
	if e.observing {
		onIO = e.obs.IOFetch
		onCache = e.obs.CacheLookup
	}
	var onStop func()
	if e.ctx.Done() != nil {
		// A cut-short I/O wait marks the stop flag synchronously: once a
		// reader's sleeps become free, the evaluating goroutine could
		// otherwise burn through its remaining postings at memory speed
		// before the watcher goroutine's asynchronous flip is visible.
		onStop = func() { e.markStopped(e.ctx.Err()) }
	}
	bound, settle := v.BindExec(e.ctx, onIO, onStop, onCache)
	if settle != nil {
		e.settleMu.Lock()
		e.settlers = append(e.settlers, settle)
		e.settleMu.Unlock()
	}
	return bound
}
