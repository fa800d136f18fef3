// Package bmw implements the document-order retrieval family of §3.1
// and §5.2.1: sequential WAND (Broder et al.) and Block-Max WAND (Ding
// & Suel; block size 64 as the paper selected), plus pBMW — the
// parallelization of Rojas et al. that the paper uses as its
// best-in-class document-order competitor.
//
// pBMW partitions the document-id space into jobs (twice as many jobs
// as worker threads, equal-size ranges) served from a common queue.
// Each job maintains a local top-k heap and a local threshold; workers
// periodically promote the smaller of (local, global) thresholds to
// their maximum, so slower workers catch up with faster ones (§5.2.1).
// The approximate variant relaxes pruning by a factor f >= 1 applied
// to the threshold: candidates whose score upper bound does not exceed
// f·Θ are skipped; f = 1 is exact.
package bmw

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"sparta/internal/heap"
	"sparta/internal/jobqueue"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// promoteEvery is how many document evaluations pass between a worker's
// threshold exchanges with the global Θ.
const promoteEvery = 64

// Variant selects the pruning depth of the document-order core.
type Variant int

const (
	// VariantWAND prunes with term-level maxima only.
	VariantWAND Variant = iota
	// VariantBMW additionally prunes with block-level maxima.
	VariantBMW
)

// BMW is the sequential algorithm (WAND or BMW by variant).
type BMW struct {
	view    postings.View
	variant Variant
}

// NewBMW creates sequential Block-Max WAND over view.
func NewBMW(view postings.View) *BMW { return &BMW{view: view, variant: VariantBMW} }

// NewWAND creates sequential WAND (no block maxima) over view.
func NewWAND(view postings.View) *BMW { return &BMW{view: view, variant: VariantWAND} }

// Name implements topk.Algorithm.
func (a *BMW) Name() string {
	if a.variant == VariantWAND {
		return "WAND"
	}
	return "BMW"
}

// Search implements topk.Algorithm.
func (a *BMW) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm.
func (a *BMW) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, a.search)
}

func (a *BMW) search(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	var st topk.Stats
	h := heap.GetScore(opts.K)
	f := opts.BoostF
	if opts.Exact {
		f = 1
	}
	cursors := make([]postings.DocCursor, len(q))
	for i, t := range q {
		cursors[i] = view.DocCursor(t)
	}
	var nPost, nInserts int64
	scanRange(cursors, 0, model.DocID(view.NumDocs()), a.variant, f,
		h, nil, es, &nPost, &nInserts, opts.Probe)
	st.Postings = nPost
	st.HeapInserts = nInserts
	res := h.Results()
	heap.PutScore(h)
	return res, st, nil
}

// PBMW is the parallel variant (of BMW by default; NewPWAND gives the
// block-max-free WAND core under the same Rojas-style partitioning).
type PBMW struct {
	view    postings.View
	variant Variant
}

// NewPBMW creates pBMW over view.
func NewPBMW(view postings.View) *PBMW { return &PBMW{view: view, variant: VariantBMW} }

// NewPWAND creates parallel WAND over view: the same document-range
// partitioning, local heaps, and Θ promotion as pBMW, pruning with
// term-level maxima only. It completes the document-order family
// (§3.1 lists MaxScore, WAND, and BMW as the production trio).
func NewPWAND(view postings.View) *PBMW { return &PBMW{view: view, variant: VariantWAND} }

// Name implements topk.Algorithm.
func (a *PBMW) Name() string {
	if a.variant == VariantWAND {
		return "pWAND"
	}
	return "pBMW"
}

// Search implements topk.Algorithm.
func (a *PBMW) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm.
func (a *PBMW) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, a.search)
}

func (a *PBMW) search(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	var st topk.Stats
	f := opts.BoostF
	if opts.Exact {
		f = 1
	}
	numDocs := view.NumDocs()
	nJobs := 2 * opts.Threads // twice the worker count (§5.2.1)
	if nJobs < 1 {
		nJobs = 1
	}

	var globalTheta atomic.Int64
	var nPost, nInserts atomic.Int64
	var mu sync.Mutex
	var heaps []*heap.ScoreHeap

	pool := jobqueue.New(opts.Threads)
	for j := 0; j < nJobs; j++ {
		j := j
		lo := model.DocID(j * numDocs / nJobs)
		hi := model.DocID((j + 1) * numDocs / nJobs)
		pool.Submit(func() {
			if es.Stopped() {
				return // anytime stop: drop unstarted ranges
			}
			es.SegmentScheduled(j)
			cursors := make([]postings.DocCursor, len(q))
			for i, t := range q {
				cursors[i] = view.DocCursor(t)
			}
			h := heap.GetScore(opts.K)
			var p, ins int64
			scanRange(cursors, lo, hi, a.variant, f, h, &globalTheta, es, &p, &ins, opts.Probe)
			nPost.Add(p)
			nInserts.Add(ins)
			mu.Lock()
			heaps = append(heaps, h)
			mu.Unlock()
		})
	}
	pool.CloseAfterDrain()

	res := heap.Merge(opts.K, heaps...)
	for _, h := range heaps {
		heap.PutScore(h)
	}
	st.Postings = nPost.Load()
	st.HeapInserts = nInserts.Load()
	return res, st, nil
}

// scanRange runs the WAND/BMW document-order loop over document ids
// [lo, hi). When globalTheta is non-nil the local threshold is
// periodically exchanged with it (pBMW's Θ promotion). The scan aborts
// once es is stopped (cancellation/deadline); the heap keeps whatever
// entered it, matching the family's anytime use.
func scanRange(cursors []postings.DocCursor, lo, hi model.DocID, variant Variant,
	f float64, h *heap.ScoreHeap, globalTheta *atomic.Int64, es *topk.ExecState,
	nPost, nInserts *int64, probe *topk.RecallProbe) {

	// Position every cursor at its first posting >= lo.
	active := make([]postings.DocCursor, 0, len(cursors))
	for _, c := range cursors {
		*nPost++
		if c.SkipTo(lo) && c.Doc() < hi {
			active = append(active, c)
		}
	}
	promoted := model.Score(0)
	sinceExchange := 0

	effTheta := func() model.Score {
		t := h.Threshold()
		if promoted > t {
			t = promoted
		}
		return t
	}
	relaxed := func(t model.Score) model.Score {
		if f <= 1 {
			return t
		}
		return model.Score(float64(t) * f)
	}

	for len(active) > 0 {
		if es.Stopped() {
			return
		}
		if globalTheta != nil {
			sinceExchange++
			if sinceExchange >= promoteEvery {
				sinceExchange = 0
				// Promote the smaller of Θ_T and Θ to their max.
				g := model.Score(globalTheta.Load())
				local := effTheta()
				if g > promoted {
					promoted = g
				}
				if local > g {
					globalTheta.CompareAndSwap(int64(g), int64(local))
				}
			}
		}

		sort.Slice(active, func(i, j int) bool { return active[i].Doc() < active[j].Doc() })
		fTheta := relaxed(effTheta())

		// Pivot selection on term-level maxima.
		var acc model.Score
		pivot := -1
		for i, c := range active {
			acc += c.MaxScore()
			if acc > fTheta {
				pivot = i
				break
			}
		}
		if pivot == -1 {
			return // no unseen document can beat the threshold
		}
		pivotDoc := active[pivot].Doc()
		if pivotDoc >= hi {
			return
		}
		// Extend the pivot over ties: lists beyond it positioned at the
		// pivot document contribute real score and must be part of the
		// upper-bound and skip computations.
		for pivot+1 < len(active) && active[pivot+1].Doc() == pivotDoc {
			pivot++
		}

		if variant == VariantBMW {
			// Block-max refinement: bound the pivot's score by the
			// per-block maxima (shallow, metadata-only).
			var bm model.Score
			for i := 0; i <= pivot; i++ {
				bm += active[i].BlockMaxAt(pivotDoc)
			}
			if bm <= fTheta {
				// Skip to the next document that could change the
				// outcome: past the nearest block boundary, or to the
				// next list's current doc.
				next := model.DocID(^uint32(0))
				for i := 0; i <= pivot; i++ {
					if bl := active[i].BlockLastAt(pivotDoc); bl < next {
						next = bl
					}
				}
				if next != model.DocID(^uint32(0)) {
					next++
				}
				if pivot+1 < len(active) && active[pivot+1].Doc() < next {
					next = active[pivot+1].Doc()
				}
				if next <= pivotDoc {
					next = pivotDoc + 1
				}
				*nPost++
				if !active[0].SkipTo(next) || active[0].Doc() >= hi {
					active = drop(active, 0)
				}
				continue
			}
		}

		if active[0].Doc() == pivotDoc {
			// All lists up to the pivot are aligned: fully score it.
			var score model.Score
			i := 0
			for i < len(active) && active[i].Doc() == pivotDoc {
				score += active[i].Score()
				i++
			}
			if score > effTheta() {
				if h.Push(pivotDoc, score) {
					*nInserts++
					es.HeapUpdate(pivotDoc, score)
					if probe != nil {
						probe.ObserveInsert(pivotDoc, score)
					}
				}
			}
			// Advance every aligned cursor past the pivot.
			for j := i - 1; j >= 0; j-- {
				*nPost++
				if !active[j].Next() || active[j].Doc() >= hi {
					active = drop(active, j)
				}
			}
		} else {
			// Advance the preceding list with the largest term bound to
			// the pivot (standard WAND advancing heuristic).
			best := 0
			for i := 1; i < pivot && active[i].Doc() < pivotDoc; i++ {
				if active[i].MaxScore() > active[best].MaxScore() {
					best = i
				}
			}
			*nPost++
			if !active[best].SkipTo(pivotDoc) || active[best].Doc() >= hi {
				active = drop(active, best)
			}
		}
	}
}

func drop(s []postings.DocCursor, i int) []postings.DocCursor {
	return append(s[:i], s[i+1:]...)
}

var (
	_ topk.Algorithm = (*BMW)(nil)
	_ topk.Algorithm = (*PBMW)(nil)
)
