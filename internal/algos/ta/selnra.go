// Selective NRA — the access-scheduling refinement of Yuan et al.
// (§6 of the paper: "the number of accesses to the sorted lists by NRA
// could be further reduced by selectively performing the sorted
// accesses to the different lists (instead of in parallel) … a
// selection policy that prioritizes the accesses to the sorted lists
// and cuts down unnecessary accesses. They showed significant cutoff
// in the number of accesses with respect to the original NRA.
// However, … the effectiveness of this approach in terms of run-time
// latency still has to be explored.") — which is exactly what the
// SelNRA benchmarks in this repository explore.
//
// Instead of round-robin sorted access, each step descends the list
// with the largest current upper bound UB[i]: that is the list whose
// next read shrinks the stopping condition Σ UB ≤ Θ fastest and whose
// head postings carry the largest score mass. Reads happen in short
// runs to amortize selection cost.
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

// selRun is the number of postings taken from the selected list before
// re-selecting.
const selRun = 32

// SelNRA is the sequential selective-access NRA variant.
type SelNRA struct {
	view postings.View
}

// NewSelNRA creates the algorithm over view.
func NewSelNRA(view postings.View) *SelNRA { return &SelNRA{view: view} }

// Name implements topk.Algorithm.
func (a *SelNRA) Name() string { return "SelNRA" }

// Search implements topk.Algorithm.
func (a *SelNRA) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm.
func (a *SelNRA) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	opts = opts.WithDefaults()
	es := topk.NewExecState(ctx, opts.Observer)
	es.Begin(q, opts)
	res, st, err := a.search(es, q, opts)
	es.Finish(st, err)
	return res, st, err
}

func (a *SelNRA) search(es *topk.ExecState, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	start := time.Now()
	var st topk.Stats
	if opts.Probe != nil {
		opts.Probe.Start()
	}
	view := es.BindView(a.view)
	m := len(q)
	cursors := make([]postings.ScoreCursor, m)
	for i, t := range q {
		cursors[i] = view.ScoreCursor(t)
	}
	ubs := topk.NewUpperBounds(topk.TermMaxima(view, q))
	h := heap.GetDoc(opts.K)
	docMap := cmap.GetLocalMap()
	var mapBytes int64
	theta := model.Score(0)
	lastHeapChange := start
	ubStop := false
	checkEvery := opts.SegSize * m
	sinceCheck := 0

	release := func() {
		opts.Budget.Release(mapBytes)
		heap.PutDoc(h)
		cmap.PutLocalMap(docMap)
	}

scan:
	for {
		if es.Stopped() {
			st.StopReason = es.StopReason()
			break
		}
		// Selection policy: the list with the largest current bound.
		best := -1
		var bestUB model.Score
		for i, c := range cursors {
			if c == nil {
				continue
			}
			if ub := ubs.Get(i); best == -1 || ub > bestUB {
				best, bestUB = i, ub
			}
		}
		if best == -1 {
			st.StopReason = "exhausted"
			break
		}
		es.SegmentScheduled(best)
		c := cursors[best]
		for j := 0; j < selRun; j++ {
			if es.Stopped() {
				st.StopReason = es.StopReason()
				break scan
			}
			if !c.Next() {
				cursors[best] = nil
				ubs.Set(best, 0)
				break
			}
			st.Postings++
			sinceCheck++
			doc, score := c.Doc(), c.Score()
			ubs.Set(best, score)
			d, ok := docMap[doc]
			if !ok {
				if ubStop {
					continue
				}
				if err := opts.Budget.Charge(cmap.DocStateBytes); err != nil {
					release()
					st.Duration = time.Since(start)
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
			d.SetScore(best, score)
			if d.LB() > theta && !h.Contains(d) {
				_, theta = h.UpdateInsert(d)
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
	if st.StopReason == "safe" {
		st.RandomAccesses = topk.CompleteScores(view, q, ubs, h.Items(), 1)
	}
	st.Duration = time.Since(start)
	res := h.Results()
	release()
	if opts.Probe != nil {
		opts.Probe.Final(res)
	}
	return res, st, nil
}

var _ topk.Algorithm = (*SelNRA)(nil)
