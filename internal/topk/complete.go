// Score completion: the step that makes an NRA-family Exact answer the
// reference's bytes, scores included.

package topk

import (
	"cmp"
	"slices"

	"sparta/internal/cmap"
	"sparta/internal/model"
	"sparta/internal/postings"
)

// CompleteScores gives every member its full score. An NRA-family safe
// stop proves the top-k set, not the members' scores: a member may still
// have a posting below where its list stopped, so its lower bound is
// short by that term and its rank can be wrong. A term whose bound in
// ubs is 0 has no posting left to find. Each missing (member, term)
// score is one lookup, returned as the count for Stats.RandomAccesses: a
// SkipTo on one doc-order cursor per term of view, members in doc-id
// order. view is the query's bound view (ExecState.BindView), so the
// cursors' charges are paid when Finish settles the query's readers
// together, not one real sleep per lookup as View.RandomAccess pays
// them. Called once no worker can touch the members any more.
func CompleteScores(view postings.View, q model.Query, ubs *UpperBounds, members []*cmap.DocState) int64 {
	var ra int64
	members = slices.SortedFunc(slices.Values(members), func(a, b *cmap.DocState) int {
		return cmp.Compare(a.ID, b.ID)
	})
	for i, t := range q {
		if ubs.Get(i) == 0 {
			continue
		}
		var c postings.DocCursor
		for _, d := range members {
			if d.ScoreAt(i) != 0 {
				continue
			}
			if c == nil {
				c = view.DocCursor(t)
			}
			ra++
			if c.SkipTo(d.ID) && c.Doc() == d.ID {
				d.SetScore(i, c.Score())
			}
		}
	}
	return ra
}
