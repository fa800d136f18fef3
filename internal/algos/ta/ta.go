// Package ta implements Fagin et al.'s Threshold Algorithm in the IR
// setting of the paper's §3.2: sequential score-order traversal of the
// query terms' posting lists with early stopping, in both flavors —
// RA (random access: every encountered document is fully scored via
// by-document lookups) and NRA (no random access: candidates carry
// lower/upper bounds from partially computed scores).
//
// Both are sequential; they are the single-thread baselines of Figures
// 3h–3i and the building block of the shared-nothing sNRA. Approximate
// variants stop "whenever the heap does not change for some parameter
// Δ ms" (§3.2).
package ta

import (
	"context"
	"time"

	"sparta/internal/cmap"
	"sparta/internal/heap"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// seenEntryBytes approximates the footprint of RA's seen-set entry.
const seenEntryBytes = 48

// RA is the sequential Random Access variant.
type RA struct {
	view postings.View
}

// NewRA creates the algorithm over view.
func NewRA(view postings.View) *RA { return &RA{view: view} }

// Name implements topk.Algorithm.
func (a *RA) Name() string { return "RA" }

// Search implements topk.Algorithm.
func (a *RA) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm.
func (a *RA) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, a.search)
}

func (a *RA) search(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	var st topk.Stats
	m := len(q)
	cursors := make([]postings.ScoreCursor, m)
	for i, t := range q {
		cursors[i] = view.ScoreCursor(t)
	}
	ubs := topk.NewUpperBounds(topk.TermMaxima(view, q))
	h := heap.GetScore(opts.K)
	seen := make(map[model.DocID]bool)
	var seenBytes int64
	lastHeapChange := time.Now()
	active := m

scan:
	for active > 0 {
		for i := 0; i < m; i++ {
			if es.Stopped() {
				break scan
			}
			c := cursors[i]
			if c == nil {
				continue
			}
			if !c.Next() {
				cursors[i] = nil
				active--
				ubs.Set(i, 0) // list exhausted: no unseen postings remain
				continue
			}
			st.Postings++
			doc, score := c.Doc(), c.Score()
			ubs.Set(i, score)
			if !seen[doc] {
				seen[doc] = true
				if err := opts.Budget.Charge(seenEntryBytes); err != nil {
					opts.Budget.Release(seenBytes)
					heap.PutScore(h)
					st.StopReason = "oom"
					return nil, st, err
				}
				seenBytes += seenEntryBytes
				full := a.fullScore(view, q, i, doc, score, &st)
				if h.Push(doc, full) {
					st.HeapInserts++
					lastHeapChange = time.Now()
					es.HeapUpdate(doc, full)
					if opts.Probe != nil && opts.Probe.ShouldObserve() {
						opts.Probe.Observe(h.Results())
					}
				}
			}
		}
		theta := h.Threshold()
		if theta > 0 && ubs.Sum() <= theta {
			st.StopReason = "ubstop"
			break
		}
		if !opts.Exact && opts.Delta > 0 && time.Since(lastHeapChange) >= opts.Delta {
			st.StopReason = "delta"
			break
		}
	}
	opts.Budget.Release(seenBytes)
	st.CandidatesPeak = int64(len(seen))
	res := h.Results()
	heap.PutScore(h)
	return res, st, nil
}

// fullScore computes score(D, q) using random access for every term
// except fromTerm, whose score is already known.
func (a *RA) fullScore(view postings.View, q model.Query, fromTerm int, doc model.DocID, known model.Score, st *topk.Stats) model.Score {
	total := known
	for j, t := range q {
		if j == fromTerm {
			continue
		}
		s, ok := view.RandomAccess(t, doc)
		st.RandomAccesses++
		if ok {
			total += s
		}
	}
	return total
}

// NRA is the sequential No Random Access variant.
type NRA struct {
	view postings.View
}

// NewNRA creates the algorithm over view.
func NewNRA(view postings.View) *NRA { return &NRA{view: view} }

// Name implements topk.Algorithm.
func (a *NRA) Name() string { return "NRA" }

// Search implements topk.Algorithm.
func (a *NRA) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm.
func (a *NRA) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, func(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
		cursors := make([]postings.ScoreCursor, len(q))
		for i, t := range q {
			cursors[i] = view.ScoreCursor(t)
		}
		return RunNRA(es, view, q, cursors, opts)
	})
}

// RunNRA executes sequential NRA for q over the given score cursors
// (one per query term, opened on view, whose term maxima are the
// initial upper bounds). It is shared by NRA proper and by sNRA, which
// runs one instance per index shard. es may be nil (run to completion,
// unobserved); a shared es lets sNRA stop all shards from one context.
// The query's lifecycle — probe, Duration, observer — is its caller's
// (topk.Run); RunNRA's own clock serves only the Δ rule.
//
// Stopping (§3.2): the safe variant stops when (1) Σ UB[i] <= Θ and
// (2) every visited document outside the heap has UB(D) <= Θ.
// Condition (2) requires an O(|docMap|·m) scan, so it is evaluated
// periodically rather than per posting. A safe answer, exact or with a
// Δ, then has its scores completed through doc cursors on view
// (topk.CompleteScores): the stop proves the set, not the scores. The
// approximate variant also stops when the heap has not changed for Δ.
func RunNRA(es *topk.ExecState, view postings.View, q model.Query, cursors []postings.ScoreCursor, opts topk.Options) (model.TopK, topk.Stats, error) {
	var st topk.Stats
	m := len(cursors)
	ubs := topk.NewUpperBounds(topk.TermMaxima(view, q))
	h := heap.GetDoc(opts.K)
	docMap := cmap.GetLocalMap()
	var mapBytes int64
	theta := model.Score(0)
	lastHeapChange := time.Now()
	active := m
	ubStop := false
	// Condition (2) is rechecked every checkEvery traversed postings.
	checkEvery := opts.SegSize * m
	sinceCheck := 0

	release := func() {
		opts.Budget.Release(mapBytes)
		heap.PutDoc(h)
		cmap.PutLocalMap(docMap)
	}

scan:
	for active > 0 {
		for i := 0; i < m; i++ {
			if es.Stopped() {
				st.StopReason = es.StopReason()
				break scan
			}
			c := cursors[i]
			if c == nil {
				continue
			}
			if !c.Next() {
				cursors[i] = nil
				active--
				ubs.Set(i, 0)
				continue
			}
			st.Postings++
			sinceCheck++
			doc, score := c.Doc(), c.Score()
			ubs.Set(i, score)

			d, ok := docMap[doc]
			if !ok {
				if ubStop {
					// Growing phase over: a brand-new document's score
					// cannot reach Θ anymore (§4.2's observation, which
					// already applies to sequential NRA [29]).
					continue
				}
				if err := opts.Budget.Charge(cmap.DocStateBytes); err != nil {
					st.CandidatesPeak = int64(len(docMap))
					release()
					st.StopReason = "oom"
					return nil, st, err
				}
				mapBytes += cmap.DocStateBytes
				d = cmap.NewDocState(doc, m)
				docMap[doc] = d
				if n := int64(len(docMap)); n > st.CandidatesPeak {
					st.CandidatesPeak = n
				}
			}
			d.SetScore(i, score)
			if d.LB() > theta && !h.Contains(d) {
				_, newTheta := h.UpdateInsert(d)
				theta = newTheta
				st.HeapInserts++
				lastHeapChange = time.Now()
				es.HeapUpdate(doc, d.CachedLB)
				if opts.Probe != nil && opts.Probe.ShouldObserve() {
					opts.Probe.Observe(h.Results())
				}
			}
		}

		if !ubStop && theta > 0 && ubs.Sum() <= theta {
			ubStop = true
		}
		if ubStop && sinceCheck >= checkEvery {
			sinceCheck = 0
			if nraSafeToStop(docMap, h, ubs, theta) {
				st.StopReason = "safe"
				break
			}
		}
		if !opts.Exact && opts.Delta > 0 && time.Since(lastHeapChange) >= opts.Delta {
			st.StopReason = "delta"
			break
		}
	}
	if st.StopReason == "" {
		// All lists exhausted: every bound is final, results are exact.
		st.StopReason = "exhausted"
	}
	if st.StopReason == "safe" {
		st.RandomAccesses = topk.CompleteScores(view, q, ubs, h.Items(), 1)
	}
	res := h.Results()
	release()
	return res, st, nil
}

// nraSafeToStop evaluates stopping condition (2): no visited document
// outside the heap can still displace a heap document.
func nraSafeToStop(docMap map[model.DocID]*cmap.DocState, h *heap.DocHeap, ubs *topk.UpperBounds, theta model.Score) bool {
	if theta == 0 {
		return false
	}
	ub := ubs.Snapshot(nil)
	for _, d := range docMap {
		if h.Contains(d) {
			continue
		}
		if d.UB(ub) > theta {
			return false
		}
	}
	return true
}

var (
	_ topk.Algorithm = (*RA)(nil)
	_ topk.Algorithm = (*NRA)(nil)
)
