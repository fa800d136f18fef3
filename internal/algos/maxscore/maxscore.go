// Package maxscore implements the MaxScore document-order algorithm
// (Turtle & Flood 1995; Strohman et al. 2005) — the third member of
// the production top-k family the paper's §3.1 lists alongside WAND
// and BMW ("Popular production top-k algorithms, e.g., MaxScore, WAND,
// and Block-Max WAND").
//
// MaxScore partitions the query terms into essential and non-essential
// lists by their maximum scores: a document that appears only in
// non-essential lists cannot beat the threshold, so the traversal
// drives document candidates from the essential lists alone and probes
// the non-essential ones with skips, aborting a document's evaluation
// as soon as its score plus the remaining non-essential maxima cannot
// pass Θ. As Θ grows, more lists become non-essential and the scanned
// frontier narrows.
package maxscore

import (
	"context"
	"sort"

	"sparta/internal/heap"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// MaxScore is the sequential algorithm bound to an index view.
type MaxScore struct {
	view postings.View
}

// New creates MaxScore over view.
func New(view postings.View) *MaxScore { return &MaxScore{view: view} }

// Name implements topk.Algorithm.
func (a *MaxScore) Name() string { return "MaxScore" }

// Search implements topk.Algorithm. MaxScore is exact by construction;
// the approximation knobs are ignored.
func (a *MaxScore) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm.
func (a *MaxScore) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, a.search)
}

func (a *MaxScore) search(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	var st topk.Stats
	type list struct {
		c   postings.DocCursor
		max model.Score
	}
	lists := make([]list, 0, len(q))
	for _, t := range q {
		c := view.DocCursor(t)
		st.Postings++
		if c.Next() {
			lists = append(lists, list{c: c, max: c.MaxScore()})
		}
	}
	// Ascending max score: lists[0..split) are non-essential.
	sort.Slice(lists, func(i, j int) bool { return lists[i].max < lists[j].max })
	// suffixMax[i] = sum of maxima of lists[i:].
	suffixMax := make([]model.Score, len(lists)+1)
	for i := len(lists) - 1; i >= 0; i-- {
		suffixMax[i] = suffixMax[i+1] + lists[i].max
	}

	h := heap.GetScore(opts.K)
	split := 0 // first essential list

	for split < len(lists) {
		if es.Stopped() {
			break
		}
		theta := h.Threshold()
		// Grow the non-essential prefix while its total maxima cannot
		// beat Θ: suffixMax[0]-suffixMax[split] is the prefix sum.
		for split < len(lists) && suffixMax[0]-suffixMax[split+1] <= theta {
			split++
		}
		if split >= len(lists) {
			break // even all lists together cannot beat Θ … done below
		}

		// Candidate: the smallest current document among essential lists.
		cand := model.DocID(^uint32(0))
		for i := split; i < len(lists); i++ {
			if d := lists[i].c.Doc(); d < cand {
				cand = d
			}
		}
		if cand == model.DocID(^uint32(0)) {
			break
		}

		// Score the candidate: essential lists aligned at cand
		// contribute directly; non-essential lists are probed with
		// skips, aborting early when the bound falls under Θ.
		var score model.Score
		for i := split; i < len(lists); i++ {
			if lists[i].c.Doc() == cand {
				score += lists[i].c.Score()
			}
		}
		// bound = score so far + maxima of unprobed non-essential lists.
		for i := split - 1; i >= 0; i-- {
			if score+suffixMax[0]-suffixMax[i+1] <= theta {
				break // cannot reach Θ no matter what
			}
			st.Postings++
			if lists[i].c.SkipTo(cand) && lists[i].c.Doc() == cand {
				score += lists[i].c.Score()
			}
		}
		if score > theta {
			if h.Push(cand, score) {
				st.HeapInserts++
				es.HeapUpdate(cand, score)
				if opts.Probe != nil {
					opts.Probe.ObserveInsert(cand, score)
				}
			}
		}

		// Advance essential lists positioned at the candidate; drop
		// exhausted lists (keeping the ascending-max order intact).
		for i := split; i < len(lists); i++ {
			if lists[i].c.Doc() == cand {
				st.Postings++
				if !lists[i].c.Next() {
					lists = append(lists[:i], lists[i+1:]...)
					// Recompute suffix maxima over the shrunk set.
					suffixMax = suffixMax[:len(lists)+1]
					suffixMax[len(lists)] = 0
					for j := len(lists) - 1; j >= 0; j-- {
						suffixMax[j] = suffixMax[j+1] + lists[j].max
					}
					if split > i {
						split--
					}
					i--
				}
			}
		}
	}

	res := h.Results()
	heap.PutScore(h)
	return res, st, nil
}

var _ topk.Algorithm = (*MaxScore)(nil)
