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
// The shards are the parts of index.Partition, the partition form the
// serving layer uses too: each is an index of its own over one document
// range, in memory or on disk. They run as the parts of one
// topk.FanOut, at most Threads at a time, which merges their lists and
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
	"fmt"

	"sparta/internal/algos/ta"
	"sparta/internal/codec"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// Partitions is the paper's partition count (§5.2.2).
const Partitions = 12

// SNRA is the algorithm bound to a partition set.
type SNRA struct {
	parts []postings.View
}

// New creates sNRA over parts, the views of disjoint document ranges of
// one index with its global document ids and scores (index.Partition).
func New(parts []postings.View) *SNRA { return &SNRA{parts: parts} }

// OnDisk builds x's p parts (index.Partition), each into an on-disk
// index under codec id, all onto store: they share its page cache and
// its statistics, as the one index they partition does.
func OnDisk(x *index.Index, p int, store *iomodel.Store, id codec.ID) ([]postings.View, error) {
	var parts []postings.View
	for s, part := range x.Partition(p) {
		di, err := diskindex.FromIndexOn(part, store, id)
		if err != nil {
			return nil, fmt.Errorf("snra: building partition %d: %w", s, err)
		}
		parts = append(parts, di)
	}
	return parts, nil
}

// Name implements topk.Algorithm.
func (a *SNRA) Name() string { return "sNRA" }

// Search implements topk.Algorithm.
func (a *SNRA) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm. Every part is bound to the
// query's one execution state, so a single cancellation stops every
// part and Finish settles every part's readers; topk.FanOut then merges
// the partial part results.
func (a *SNRA) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, nil, a.search)
}

func (a *SNRA) search(es *topk.ExecState, _ postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	// The ExecState already saw QueryStart once and carries the
	// observer: the fan-out gets none, so neither it nor the part-local
	// runs open query scopes of their own.
	fanOpts := opts
	fanOpts.Observer = nil
	return topk.FanOut(es.Context(), q, fanOpts, len(a.parts), opts.Threads, topk.StopMerged, func(_ context.Context, s int, partOpts topk.Options) (model.TopK, topk.Stats, error) {
		if es.Stopped() {
			return nil, topk.Stats{}, nil // drop unstarted parts; started ones stop inside
		}
		es.SegmentScheduled(s)
		view := es.BindView(a.parts[s])
		cursors := make([]postings.ScoreCursor, len(q))
		for i, t := range q {
			cursors[i] = view.ScoreCursor(t)
		}
		// Thread-local NRA; the probe is shared (it is the only global
		// view of accrual and is internally synchronized).
		res, st, err := ta.RunNRA(es, view, q, cursors, partOpts)
		if err == nil && opts.Probe != nil {
			for _, r := range res {
				opts.Probe.ObserveInsert(r.Doc, r.Score)
			}
		}
		return res, st, err
	})
}

var _ topk.Algorithm = (*SNRA)(nil)
