// Package pra implements pRA, the parallel Random Access variant of the
// Threshold Algorithm (§5.2.2). Worker threads traverse the query
// terms' impact-ordered lists (segments scheduled through a shared job
// queue); each newly encountered document is fully scored through the
// secondary by-document index and offered to a single shared heap —
// "experiments did not show any benefit to using local heaps".
//
// Multiple workers may encounter postings of the same document
// independently; "the implementation allows only the first to take
// effect", realized here with a create-once concurrent map.
//
// Since RA's stopping detection is lightweight, no dedicated task
// checks it (§5.2.2): every worker evaluates the UBStop condition and
// the Δ heap-idle timeout and notifies the others through a shared
// flag when it decides to stop.
package pra

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/cmap"
	"sparta/internal/heap"
	"sparta/internal/jobqueue"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// PRA is the algorithm bound to an index view. The view must support
// RandomAccess (the RA secondary index, which doubles the index
// footprint — §3.2).
type PRA struct {
	view postings.View
}

// New creates pRA over view.
func New(view postings.View) *PRA { return &PRA{view: view} }

// Name implements topk.Algorithm.
func (a *PRA) Name() string { return "pRA" }

// Search implements topk.Algorithm.
func (a *PRA) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm.
func (a *PRA) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, a.search)
}

func (a *PRA) search(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	r := &run{
		view: view,
		q:    q,
		opts: opts,
		m:    len(q),
		exec: es,
		h:    heap.GetScore(opts.K),
		seen: cmap.New(4 * opts.K),
	}
	r.cursors = make([]postings.ScoreCursor, r.m)
	for i, t := range q {
		r.cursors[i] = view.ScoreCursor(t)
	}
	r.ubs = topk.NewUpperBounds(topk.TermMaxima(view, q))
	r.lastHeapChange.Store(time.Now().UnixNano())
	r.remaining.Store(int64(r.m))

	workers := opts.Threads
	if workers > r.m {
		workers = r.m
	}
	r.pool = jobqueue.New(workers)
	for i := 0; i < r.m; i++ {
		i := i
		r.pool.Submit(func() { r.processTerm(i) })
	}
	r.pool.CloseAfterDrain()

	var st topk.Stats
	st.Postings = r.nPostings.Load()
	st.RandomAccesses = r.nRandom.Load()
	st.HeapInserts = r.nInserts.Load()
	st.CandidatesPeak = int64(r.seen.Len())
	opts.Budget.Release(r.seenBytes.Load())
	if v := r.stopReason.Load(); v != nil {
		st.StopReason = v.(string)
	}
	if r.failed.Load() {
		st.StopReason = "oom"
		heap.PutScore(r.h) // CloseAfterDrain returned: no worker holds it
		return nil, st, membudget.ErrMemoryBudget
	}

	r.heapMu.Lock()
	res := r.h.Results()
	r.heapMu.Unlock()
	heap.PutScore(r.h)
	return res, st, nil
}

type run struct {
	view postings.View
	q    model.Query
	opts topk.Options
	m    int
	exec *topk.ExecState

	cursors []postings.ScoreCursor
	ubs     *topk.UpperBounds
	pool    *jobqueue.Pool

	heapMu sync.Mutex
	h      *heap.ScoreHeap
	theta  atomic.Int64

	seen           *cmap.Map
	seenBytes      atomic.Int64
	lastHeapChange atomic.Int64
	stop           atomic.Bool
	failed         atomic.Bool
	remaining      atomic.Int64
	stopReason     atomic.Value

	nPostings atomic.Int64
	nRandom   atomic.Int64
	nInserts  atomic.Int64
}

func (r *run) halt(reason string) {
	if r.stop.CompareAndSwap(false, true) {
		r.stopReason.Store(reason)
	}
}

func (r *run) processTerm(i int) {
	if r.stop.Load() {
		return
	}
	if r.exec.Stopped() {
		r.halt(r.exec.StopReason())
		return
	}
	r.exec.SegmentScheduled(i)
	c := r.cursors[i]
	for j := 0; j < r.opts.SegSize; j++ {
		if r.stop.Load() {
			return
		}
		if r.exec.Stopped() {
			r.halt(r.exec.StopReason())
			return
		}
		if !c.Next() {
			r.ubs.Set(i, 0)
			r.remaining.Add(-1)
			r.checkStop()
			return
		}
		r.nPostings.Add(1)
		doc, score := c.Doc(), c.Score()
		r.ubs.Set(i, score)

		// First encounter wins; later encounters of the same document
		// (from other lists) are ignored.
		d, created := r.seen.GetOrCreate(doc, func() *cmap.DocState {
			if err := r.opts.Budget.Charge(cmap.DocStateBytes); err != nil {
				return nil
			}
			return cmap.NewDocState(doc, 0)
		})
		if d == nil {
			r.failed.Store(true)
			r.halt("oom")
			return
		}
		if created {
			r.seenBytes.Add(cmap.DocStateBytes)
			full := r.fullScore(i, doc, score)
			if full > model.Score(r.theta.Load()) {
				r.offer(doc, full)
			}
		}
	}
	r.checkStop()
	if !r.stop.Load() {
		r.pool.Submit(func() { r.processTerm(i) })
	}
}

func (r *run) fullScore(fromTerm int, doc model.DocID, known model.Score) model.Score {
	total := known
	for j, t := range r.q {
		if j == fromTerm {
			continue
		}
		s, ok := r.view.RandomAccess(t, doc)
		r.nRandom.Add(1)
		if ok {
			total += s
		}
	}
	return total
}

func (r *run) offer(doc model.DocID, score model.Score) {
	r.heapMu.Lock()
	if r.h.Push(doc, score) {
		r.theta.Store(int64(r.h.Threshold()))
		r.lastHeapChange.Store(time.Now().UnixNano())
		r.nInserts.Add(1)
		r.exec.HeapUpdate(doc, score)
		if r.opts.Probe != nil && r.opts.Probe.ShouldObserve() {
			r.opts.Probe.Observe(r.h.Results())
		}
	}
	r.heapMu.Unlock()
}

// checkStop is the workers' distributed stopping detection.
func (r *run) checkStop() {
	if r.stop.Load() {
		return
	}
	theta := model.Score(r.theta.Load())
	if theta > 0 && r.ubs.Sum() <= theta {
		r.halt("ubstop")
		return
	}
	if r.remaining.Load() == 0 {
		r.halt("exhausted")
		return
	}
	if !r.opts.Exact && r.opts.Delta > 0 {
		idle := time.Since(time.Unix(0, r.lastHeapChange.Load()))
		if idle >= r.opts.Delta {
			r.halt("delta")
		}
	}
}

var _ topk.Algorithm = (*PRA)(nil)
