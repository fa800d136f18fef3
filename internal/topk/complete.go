// Score completion: the step that makes an NRA-family Exact answer the
// reference's bytes, scores included.

package topk

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

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
//
// Up to workers goroutines, the caller among them, each take the next
// term not yet taken: only term i's goroutine sets a member's score i, so
// the members' bounds (atomic) sum each score once.
func CompleteScores(view postings.View, q model.Query, ubs *UpperBounds, members []*cmap.DocState, workers int) int64 {
	members = slices.SortedFunc(slices.Values(members), func(a, b *cmap.DocState) int {
		return cmp.Compare(a.ID, b.ID)
	})
	if workers = min(workers, len(q)); workers > 1 {
		return completeParallel(view, q, ubs, members, workers)
	}
	var ra int64
	for i := range q {
		ra += completeTerm(view, q, ubs, i, members)
	}
	return ra
}

// completeParallel is CompleteScores on workers goroutines.
func completeParallel(view postings.View, q model.Query, ubs *UpperBounds, members []*cmap.DocState, workers int) int64 {
	var ra atomic.Int64
	parallel(len(q), workers, func(i int) { ra.Add(completeTerm(view, q, ubs, i, members)) })
	return ra.Load()
}

// parallel runs job(i) for every i in [0, n) on up to workers
// goroutines, the caller among them, each taking the next index not yet
// taken, and returns once every job has returned.
func parallel(n, workers int, job func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			job(i)
		}
	}
	workers = max(1, min(workers, n))
	wg.Add(workers)
	for range workers - 1 {
		go work()
	}
	work()
	wg.Wait()
}

// completeTerm looks up term i's score for every member, in doc-id
// order, that has none, and returns the lookups made.
func completeTerm(view postings.View, q model.Query, ubs *UpperBounds, i int, members []*cmap.DocState) int64 {
	if ubs.Get(i) == 0 {
		return 0
	}
	var ra int64
	var c postings.DocCursor
	for _, d := range members {
		if d.ScoreAt(i) != 0 {
			continue
		}
		if c == nil {
			c = view.DocCursor(q[i])
		}
		ra++
		if c.SkipTo(d.ID) && c.Doc() == d.ID {
			d.SetScore(i, c.Score())
		}
	}
	return ra
}
