// Package pnra implements pNRA — the naïve shared-state parallelization
// of NRA that the paper uses to demonstrate why Sparta's optimizations
// matter (§5.2.2): "it uses a shared document map, which it does not
// clean, and it updates the term upper bounds upon every document
// evaluation. As in Sparta, a dedicated task checks the stopping
// condition."
//
// The structural differences from Sparta (package core) are exactly the
// three things the paper calls out:
//
//   - no cleaner: the shared docMap only grows, so both its memory
//     footprint and the stop-checker's scan cost grow with it (and on
//     the 10x corpus it exhausts memory — the N/A entries);
//   - per-posting UB publication: every posting write invalidates the
//     UB cache line that every other worker reads;
//   - no termMap replicas: workers hit the shared map forever.
package pnra

import (
	"context"
	"sync"
	"sync/atomic"

	"sparta/internal/cmap"
	"sparta/internal/heap"
	"sparta/internal/jobqueue"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// PNRA is the algorithm bound to an index view.
type PNRA struct {
	view postings.View
}

// New creates pNRA over view.
func New(view postings.View) *PNRA { return &PNRA{view: view} }

// Name implements topk.Algorithm.
func (a *PNRA) Name() string { return "pNRA" }

// Search implements topk.Algorithm.
func (a *PNRA) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm.
func (a *PNRA) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, a.search)
}

func (a *PNRA) search(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	store := cmap.GetStore()
	r := &run{
		opts:    opts,
		m:       len(q),
		exec:    es,
		docMap:  store.Map(cmap.DefaultShards, 16*opts.K),
		docHeap: heap.GetDoc(opts.K),
		inHeap:  make(map[*cmap.DocState]bool, opts.K),
	}
	// Past pool.Close() and idle.Stop() no worker, checker pass or Δ
	// timer is left to reach the heap or a candidate, on any stop reason.
	defer func() {
		heap.PutDoc(r.docHeap)
		store.Release()
	}()
	r.cursors = make([]postings.ScoreCursor, r.m)
	r.slabs = make([]*cmap.Slab, r.m)
	for i, t := range q {
		r.cursors[i] = view.ScoreCursor(t)
		r.slabs[i] = store.Slab(r.m)
	}
	r.ubs = topk.NewUpperBounds(topk.TermMaxima(view, q))
	r.idle = topk.NewIdleStop(opts, func() { r.finish("delta") })
	r.remaining.Store(int64(r.m))

	workers := opts.Threads
	if workers > r.m+1 {
		workers = r.m + 1 // +1 for the dedicated stop-checker task
	}
	r.pool = jobqueue.New(workers)
	r.checker = jobqueue.NewEventJob(r.pool, r.stopChecker)
	for i := 0; i < r.m; i++ {
		i := i
		r.pool.Submit(func() { r.processTerm(i) })
	}
	r.checker.Start()
	r.pool.Run() // as the first worker, until finish stops the pool
	r.idle.Stop()
	r.pool.Close()

	var st topk.Stats
	st.Postings = r.nPostings.Load()
	st.HeapInserts = r.nInserts.Load()
	st.CandidatesPeak = int64(r.docMap.Len())
	opts.Budget.Release(r.mapBytes.Load())
	if v := r.stopReason.Load(); v != nil {
		st.StopReason = v.(string)
	}
	if r.failed.Load() {
		return nil, st, membudget.ErrMemoryBudget
	}
	r.heapMu.Lock()
	if st.StopReason == "safe" {
		st.RandomAccesses = topk.CompleteScores(view, q, r.ubs, r.docHeap.Items(), opts.Threads)
	}
	res := r.docHeap.Results()
	r.heapMu.Unlock()
	return res, st, nil
}

type run struct {
	opts topk.Options
	m    int
	exec *topk.ExecState

	cursors []postings.ScoreCursor
	ubs     *topk.UpperBounds
	pool    *jobqueue.Pool
	checker *jobqueue.EventJob // the stop checker, parked between events

	docMap   *cmap.Map
	slabs    []*cmap.Slab // slabs[i] allocates what term i's list discovers; one worker owns a list at a time
	mapBytes atomic.Int64

	heapMu  sync.Mutex
	docHeap *heap.DocHeap
	theta   atomic.Int64
	idle    *topk.IdleStop // the Δ rule; nil when exact

	done      atomic.Bool
	failed    atomic.Bool
	remaining atomic.Int64

	nPostings  atomic.Int64
	nInserts   atomic.Int64
	stopReason atomic.Value
	ubBuf      []model.Score // the stop checker's scratch, like inHeap
	inHeap     map[*cmap.DocState]bool
}

func (r *run) finish(reason string) {
	if r.done.CompareAndSwap(false, true) {
		r.stopReason.Store(reason)
		r.pool.Stop()
	}
}

func (r *run) processTerm(i int) {
	if r.done.Load() {
		return
	}
	if r.exec.Stopped() {
		r.finish(r.exec.StopReason())
		return
	}
	r.exec.SegmentScheduled(i)
	c := r.cursors[i]
	for j := 0; j < r.opts.SegSize; j++ {
		if r.done.Load() {
			return
		}
		if r.exec.Stopped() {
			r.finish(r.exec.StopReason())
			return
		}
		if !c.Next() {
			r.ubs.Set(i, 0)
			r.remaining.Add(-1)
			r.checker.Notify() // once the last list ends, the checker concludes
			return
		}
		r.nPostings.Add(1)
		doc, score := c.Doc(), c.Score()
		// Naïve: publish the upper bound on every evaluation.
		r.ubs.Set(i, score)

		d, created := r.docMap.GetOrCreate(doc, func() *cmap.DocState {
			if err := r.opts.Budget.Charge(cmap.DocStateBytes); err != nil {
				return nil
			}
			return r.slabs[i].New(doc)
		})
		if d == nil {
			r.failed.Store(true)
			r.finish("oom")
			return
		}
		if created {
			r.mapBytes.Add(cmap.DocStateBytes)
		}
		d.SetScore(i, score)
		if d.LB() > model.Score(r.theta.Load()) {
			r.updateHeap(d)
		}
	}
	r.checker.Notify()
	r.pool.Submit(func() { r.processTerm(i) })
}

func (r *run) updateHeap(d *cmap.DocState) {
	r.heapMu.Lock()
	if !r.docHeap.Contains(d) {
		_, theta := r.docHeap.UpdateInsert(d)
		r.theta.Store(int64(theta))
		r.nInserts.Add(1)
		r.exec.HeapUpdate(d.ID, d.CachedLB)
		r.idle.Touch() // after the observers: their cost is not idleness
		if r.opts.Probe != nil && r.opts.Probe.ShouldObserve() {
			r.opts.Probe.Observe(r.docHeap.Results())
		}
		r.heapMu.Unlock()
		r.checker.Notify() // Θ or the heap's membership moved
		return
	}
	r.heapMu.Unlock()
}

// stopChecker is the dedicated stopping-condition task: each pass
// evaluates NRA's two safe conditions over the whole (uncleaned)
// docMap; the approximate variant's Δ idle timeout is r.idle's timer.
// Like Sparta's cleaner (see core) it is event-driven: a pass that does
// not end the query parks until a segment boundary, a list end or a
// heap insert submits it again, so the two algorithms differ in what a
// pass costs, not in how often they sleep.
func (r *run) stopChecker() {
	if r.done.Load() {
		return
	}
	if r.exec.Stopped() {
		r.finish(r.exec.StopReason())
		return
	}
	// Read before any state the events announce, so an event that lands
	// during this pass sends the checker round again instead of parking.
	epoch := r.checker.Epoch()
	if r.remaining.Load() == 0 {
		r.finish("exhausted")
		return
	}
	theta := model.Score(r.theta.Load())
	if theta > 0 && r.ubs.Sum() <= theta {
		// Equation 1 holds: no new candidate can enter the heap. As in
		// Sparta, the Δ rule belongs to what follows.
		r.idle.Arm()
		// Condition 2: no visited doc outside the heap can still pass Θ.
		r.ubBuf = r.ubs.Snapshot(r.ubBuf)
		r.heapMu.Lock()
		clear(r.inHeap)
		for _, d := range r.docHeap.Items() {
			r.inHeap[d] = true
		}
		r.heapMu.Unlock()
		safe := true
		r.docMap.Range(func(d *cmap.DocState) bool {
			if d.UB(r.ubBuf) > theta && !r.inHeap[d] {
				safe = false
				return false
			}
			return true
		})
		if safe {
			r.finish("safe")
			return
		}
	}
	r.checker.Park(epoch)
}

var _ topk.Algorithm = (*PNRA)(nil)
