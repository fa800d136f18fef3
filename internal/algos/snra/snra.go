// Package snra implements sNRA — the shared-nothing parallelization of
// NRA (§5.2.2): "the index is partitioned to 12 shards by document id.
// Each thread finds the top-k documents in its shard by running NRA
// independently with thread-local data structures. When all threads
// complete, their lists are merged and the global top-k documents are
// kept."
//
// Shared-nothing looks attractive (zero synchronization), but the paper
// shows it performs worse than even sequential NRA (§1): each shard
// must find a full local top-k with a threshold built from only its own
// 1/S-th of the documents, so early stopping is far weaker — the very
// result that motivates Sparta's judicious sharing.
//
// Shards run as the parts of one topk.FanOut, at most Threads at a
// time (the partitioning is fixed at index build time, 12 shards by
// default, matching the paper's setup), which merges their lists and
// folds their Stats the way shardserve folds shards.
//
// A departure from the paper (DESIGN.md §4a): NRA proves the top-k
// *set*, but the scores it reports are lower bounds, and a merge that
// ranks by bounds can give a heap document's global slot to a weaker,
// fully scored document of another shard — the paper reports sNRA-high
// at 99 % recall (Table 3). Here every shard's exact run completes its
// heap members' scores (ta.RunNRA), so the merge is a plain k-way merge
// and sNRA-exact is the reference's bytes.
package snra

import (
	"context"

	"sparta/internal/algos/ta"
	"sparta/internal/diskindex"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// SNRA is the algorithm bound to an index view.
type SNRA struct {
	view postings.View
}

// New creates sNRA over view.
func New(view postings.View) *SNRA { return &SNRA{view: view} }

// prebuilt is a view whose shard sublists were partitioned when it was
// built — the on-disk index, under any codec — and can only be read at
// that count. In-memory views filter at any count and don't implement it.
type prebuilt interface {
	Shards() int
}

// Name implements topk.Algorithm.
func (a *SNRA) Name() string { return "sNRA" }

// Search implements topk.Algorithm. The partition count is the index's
// build-time shard count, or the paper's 12 for in-memory views.
func (a *SNRA) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm. One execution state is
// shared across all shard-local NRA instances, so a single cancellation
// stops every shard; topk.FanOut then merges the partial shard results.
func (a *SNRA) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, a.view, a.search)
}

func (a *SNRA) search(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	shards := diskindex.DefaultShards
	if pre, ok := a.view.(prebuilt); ok {
		shards = pre.Shards()
	}

	// The ExecState already saw QueryStart once and carries the
	// observer: the fan-out gets none, so neither it nor the
	// shard-local runs open query scopes of their own.
	fanOpts := opts
	fanOpts.Observer = nil
	return topk.FanOut(es.Context(), q, fanOpts, shards, opts.Threads, topk.StopMerged, func(_ context.Context, s int, shardOpts topk.Options) (model.TopK, topk.Stats, error) {
		if es.Stopped() {
			return nil, topk.Stats{}, nil // drop unstarted shards; started ones stop inside
		}
		es.SegmentScheduled(s)
		cursors := make([]postings.ScoreCursor, len(q))
		for i, t := range q {
			cursors[i] = view.ScoreCursorShard(t, s, shards)
		}
		// Thread-local NRA; the probe is shared (it is the only global
		// view of accrual and is internally synchronized).
		res, st, err := ta.RunNRA(es, view, q, cursors, shardOpts)
		if err == nil && opts.Probe != nil {
			for _, r := range res {
				opts.Probe.ObserveInsert(r.Doc, r.Score)
			}
		}
		return res, st, err
	})
}

var _ topk.Algorithm = (*SNRA)(nil)
