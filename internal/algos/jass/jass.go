// Package jass implements the score-order JASS algorithm (Lin &
// Trotman's anytime ranking) and pJASS, the parallelization of
// Mackenzie et al. that the paper compares against (§5.2.1).
//
// JASS's virtue is simplicity: it performs very little work per
// posting. Posting lists are traversed in decreasing term-score order
// and each posting's score is accumulated into a per-document entry;
// there is no candidate pruning and no heap maintenance during the
// traversal — the top-k is selected from the accumulators at the end.
// Early termination is a work budget: stop after processing a fraction
// p of the query's postings (p = 1 is exact).
//
// pJASS traverses all posting lists in parallel and accumulates the
// encountered scores per-document in a shared docMap; "each document is
// protected by a lock" in the paper's Java implementation — here each
// document's per-term score slot is written with an atomic store, which
// gives the same per-document granularity without a lock table. pJASS
// "intentionally avoids pruning and maintains a huge in-memory document
// map throughout the query evaluation" (§6) — which is exactly why it
// runs out of memory on the 10x corpus (Tables 2–3's N/A entries); the
// docMap is charged against the query's memory budget and never
// released until the query ends.
package jass

import (
	"context"
	"sync/atomic"

	"sparta/internal/cmap"
	"sparta/internal/heap"
	"sparta/internal/jobqueue"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// segSizeJASS is the run length processed from the currently
// highest-impact list before re-selecting (sequential variant).
const segSizeJASS = 128

// JASS is the sequential algorithm.
type JASS struct {
	view postings.View
}

// New creates sequential JASS over view.
func New(view postings.View) *JASS { return &JASS{view: view} }

// Name implements topk.Algorithm.
func (a *JASS) Name() string { return "JASS" }

// Search implements topk.Algorithm.
func (a *JASS) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm. JASS is anytime by design
// (its work budget is exactly an internal stop); cancellation simply
// ends the accumulation early and the top-k selection runs over
// whatever accumulated.
func (a *JASS) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, a.search)
}

func (a *JASS) search(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	var st topk.Stats
	m := len(q)
	cursors := make([]postings.ScoreCursor, m)
	var total int64
	for i, t := range q {
		cursors[i] = view.ScoreCursor(t)
		total += int64(view.DF(t))
	}
	budget := workBudget(total, opts)

	acc := make(map[model.DocID]model.Score)
	var accBytes int64
scan:
	for st.Postings < budget {
		// Pick the list with the highest remaining impact and drain a
		// run from it — decreasing term-score order across lists.
		best := -1
		var bestBound model.Score
		for i, c := range cursors {
			if c == nil {
				continue
			}
			if b := c.Bound(); best == -1 || b > bestBound {
				best, bestBound = i, b
			}
		}
		if best == -1 {
			break // every list exhausted
		}
		es.SegmentScheduled(best)
		c := cursors[best]
		for j := 0; j < segSizeJASS && st.Postings < budget; j++ {
			if es.Stopped() {
				break scan
			}
			if !c.Next() {
				cursors[best] = nil
				break
			}
			st.Postings++
			doc := c.Doc()
			if _, ok := acc[doc]; !ok {
				if err := opts.Budget.Charge(cmap.DocStateBytes); err != nil {
					opts.Budget.Release(accBytes)
					st.StopReason = "oom"
					return nil, st, err
				}
				accBytes += cmap.DocStateBytes
			}
			acc[doc] += c.Score()
			if opts.Probe != nil {
				opts.Probe.ObserveInsert(doc, acc[doc])
			}
		}
	}
	if budget < total && st.Postings >= budget {
		st.StopReason = "fraction"
	}
	st.CandidatesPeak = int64(len(acc))
	opts.Budget.Release(accBytes)

	h := heap.GetScore(opts.K)
	for d, s := range acc {
		h.Push(d, s)
	}
	st.HeapInserts = int64(h.Len())
	res := h.Results()
	heap.PutScore(h)
	return res, st, nil
}

// PJASS is the parallel variant.
type PJASS struct {
	view postings.View
}

// NewP creates pJASS over view.
func NewP(view postings.View) *PJASS { return &PJASS{view: view} }

// Name implements topk.Algorithm.
func (a *PJASS) Name() string { return "pJASS" }

// Search implements topk.Algorithm.
func (a *PJASS) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm. A cancelled run still
// performs the final selection over the scores accumulated so far — the
// partial result the anytime contract promises.
func (a *PJASS) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, a.search)
}

func (a *PJASS) search(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	var st topk.Stats
	m := len(q)
	var total int64
	cursors := make([]postings.ScoreCursor, m)
	for i, t := range q {
		cursors[i] = view.ScoreCursor(t)
		total += int64(view.DF(t))
	}
	budget := workBudget(total, opts)

	r := &pjassRun{
		opts:    opts,
		budget:  budget,
		docMap:  cmap.New(4 * opts.K),
		cursors: cursors,
		m:       m,
		exec:    es,
	}
	r.pool = jobqueue.New(opts.Threads)
	for i := 0; i < m; i++ {
		i := i
		r.pool.Submit(func() { r.processTerm(i) })
	}
	r.pool.CloseAfterDrain()

	st.Postings = r.nPostings.Load()
	st.CandidatesPeak = int64(r.docMap.Len())
	opts.Budget.Release(r.mapBytes.Load())
	if r.failed.Load() {
		st.StopReason = "oom"
		return nil, st, membudget.ErrMemoryBudget
	}
	if !es.Stopped() && budget < total && r.nPostings.Load() >= budget {
		st.StopReason = "fraction"
	}

	// Final selection over the accumulated partial scores.
	h := heap.GetScore(opts.K)
	r.docMap.Range(func(d *cmap.DocState) bool {
		h.Push(d.ID, d.LB())
		return true
	})
	st.HeapInserts = int64(h.Len())
	res := h.Results()
	heap.PutScore(h)
	return res, st, nil
}

type pjassRun struct {
	opts    topk.Options
	budget  int64
	docMap  *cmap.Map
	cursors []postings.ScoreCursor
	m       int
	pool    *jobqueue.Pool
	exec    *topk.ExecState

	nPostings atomic.Int64
	mapBytes  atomic.Int64
	failed    atomic.Bool
}

// processTerm drains one segment of term i's impact list into the
// shared docMap, then re-enqueues itself — all lists advance in
// parallel at the same rate modulo the segment size.
func (r *pjassRun) processTerm(i int) {
	if r.failed.Load() || r.nPostings.Load() >= r.budget || r.exec.Stopped() {
		return
	}
	r.exec.SegmentScheduled(i)
	c := r.cursors[i]
	for j := 0; j < r.opts.SegSize; j++ {
		if r.failed.Load() || r.nPostings.Load() >= r.budget || r.exec.Stopped() {
			return
		}
		if !c.Next() {
			return
		}
		r.nPostings.Add(1)
		doc, score := c.Doc(), c.Score()
		d, created := r.docMap.GetOrCreate(doc, func() *cmap.DocState {
			if err := r.opts.Budget.Charge(cmap.DocStateBytes); err != nil {
				return nil
			}
			return cmap.NewDocState(doc, r.m)
		})
		if d == nil {
			r.failed.Store(true)
			return
		}
		if created {
			r.mapBytes.Add(cmap.DocStateBytes)
		}
		d.SetScore(i, score)
		if r.opts.Probe != nil {
			r.opts.Probe.ObserveInsert(doc, d.LB())
		}
	}
	r.pool.Submit(func() { r.processTerm(i) })
}

// workBudget converts the fraction p into a posting count. A budget of
// every posting (p = 1, or Exact) cuts nothing, so a run that spends it
// stops "exhausted", not "fraction".
func workBudget(total int64, opts topk.Options) int64 {
	p := opts.FracP
	if opts.Exact || p <= 0 || p > 1 {
		p = 1
	}
	b := int64(float64(total) * p)
	if b < 1 {
		b = 1
	}
	return b
}

var (
	_ topk.Algorithm = (*JASS)(nil)
	_ topk.Algorithm = (*PJASS)(nil)
)
