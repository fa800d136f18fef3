// Fan-out over document-range parts, and the merge of their answers.
// Three layers run one query as independent parts, each over its own
// document range and scoring under the global statistics: shardserve's
// shards, liveindex's segments and sNRA's partitions (§5.2.2). FanOut
// is the one combinator all three use: it runs the parts on the
// goroutines CompleteScores runs its terms on (parallel), merges their
// top-k lists with MergeTopK and folds their Stats (Stats.Fold), so
// every layer counts work and reports stop reasons by the same rule.
//
// MergeTopK is the serving-side sibling of heap.Merge (which merges
// per-thread heaps inside one query): here the inputs are already
// canonically sorted result lists, so a k-way merge over the list
// heads produces the first k global results in O(P·k·log P) without
// re-sorting the concatenation.

package topk

import (
	"context"
	"sync/atomic"
	"time"

	"sparta/internal/model"
)

// Stop reasons of a fan-out whose parts are shards (see FanOut).
const (
	// StopMerged: every shard delivered a complete result and none
	// stopped early.
	StopMerged = "merged"
	// StopPartial: at least one shard was dropped; the merged top-k
	// covers the shards that answered.
	StopPartial = "partial"
)

// Part evaluates part i of a fanned-out query. Its opts are the
// query's with Probe nil and an Observer, if any, that forwards
// execution events but not QueryStart/QueryFinish, which FanOut emits
// once for the whole query. A part its caller dropped (a shard that
// did not deliver a complete result) reports ShardsDropped 1.
type Part func(ctx context.Context, i int, opts Options) (model.TopK, Stats, error)

// FanOut evaluates q as n parts, at most workers at a time (the caller
// among them), and merges their answers with MergeTopK. The first part
// error ends the query: parts not yet started are skipped, and the
// error returns with no answer. The parts' Stats are folded
// (Stats.Fold), and the stop reason is, in this order:
//   - the context's reason, if the query's context ended;
//   - StopPartial, if a part was dropped;
//   - the folded reason, if a part stopped early (delta, oom, prob, …);
//   - complete, when it is not empty (shard fan-outs pass StopMerged);
//   - the folded reason (safe, exhausted).
//
// With no parts, or a query with no terms, there is nothing to read: no
// part runs, and the answer is empty and stopped "exhausted", as a
// single-index algorithm answers a query with no terms.
func FanOut(ctx context.Context, q model.Query, opts Options, n, workers int, complete string, part Part) (model.TopK, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(q) == 0 {
		n = 0
	}
	start := time.Now()
	obs := opts.Observer
	if obs != nil {
		obs.QueryStart(q, opts)
	}
	popts := opts
	popts.Probe = nil // recall probes are single-index instruments
	if obs != nil {
		popts.Observer = partObserver{obs}
	}

	parts := make([]model.TopK, n)
	stats := make([]Stats, n)
	errs := make([]error, n)
	var failed atomic.Bool
	parallel(n, workers, func(i int) {
		if failed.Load() {
			return
		}
		parts[i], stats[i], errs[i] = part(ctx, i, popts)
		if errs[i] != nil {
			failed.Store(true)
		}
	})

	var st Stats
	for i := range stats {
		st.Fold(stats[i])
	}
	switch {
	case n == 0:
		st.StopReason = "exhausted"
	case ctx.Err() != nil:
		st.StopReason = StopReasonFor(ctx.Err())
	case st.ShardsDropped > 0:
		st.StopReason = StopPartial
	case complete != "" && stopRank(st.StopReason) > 1:
		st.StopReason = complete
	}
	st.Duration = time.Since(start)
	var res model.TopK
	var err error
	for _, err = range errs {
		if err != nil {
			break
		}
	}
	if err == nil {
		res = MergeTopK(parts, opts.K)
	}
	if obs != nil {
		obs.QueryFinish(st, err)
	}
	return res, st, err
}

// Fold adds one part's Stats to s, a fanned-out query's: the counts add
// up, CandidatesPeak is the largest part's, and StopReason becomes the
// more telling of the two (stopRank; equal ranks go to the name that
// sorts first, so the fold does not depend on the parts' order).
// Duration is the caller's.
func (s *Stats) Fold(part Stats) {
	s.Postings += part.Postings
	s.RandomAccesses += part.RandomAccesses
	s.HeapInserts += part.HeapInserts
	s.Cleanings += part.Cleanings
	s.ShardsDropped += part.ShardsDropped
	s.CandidatesPeak = max(s.CandidatesPeak, part.CandidatesPeak)
	if r, q := stopRank(part.StopReason), stopRank(s.StopReason); r < q || r == q && part.StopReason < s.StopReason {
		s.StopReason = part.StopReason
	}
}

// stopRank orders stop reasons, most telling first: a context stop,
// then any other stop that may leave the answer short (delta, oom,
// prob, fraction, a nested fan-out's partial, …), then a proven stop
// (safe, the TA family's ubstop, a nested fan-out's merged), then a
// part that read all its postings, then a part that never ran.
func stopRank(reason string) int {
	switch reason {
	case StopCancelled, StopDeadline:
		return 0
	case "safe", "ubstop", StopMerged:
		return 2
	case "exhausted":
		return 3
	case "":
		return 4
	}
	return 1
}

// partObserver forwards a part's execution events to the query's
// observer but swallows its QueryStart/QueryFinish, which FanOut emits
// exactly once itself.
type partObserver struct{ Observer }

func (partObserver) QueryStart(model.Query, Options) {}
func (partObserver) QueryFinish(Stats, error)        {}

// MergeTopK merges per-shard top-k lists into the global top-k.
//
// Each part must be canonically sorted (descending score, ascending
// doc id on ties — the order model.TopK.Sort establishes and every
// Algorithm returns). Duplicate documents across parts — possible
// when shard ranges overlap or a hedged retry returns alongside its
// primary — keep their first (highest-scored) occurrence. The merge
// stops as soon as k results are emitted, so partial per-shard lists
// (anytime results from shards that missed their deadline) merge for
// free: they simply contribute fewer heads.
func MergeTopK(parts []model.TopK, k int) model.TopK {
	if k <= 0 {
		k = DefaultK
	}
	// Heads of the non-empty parts, heap-ordered so hs[0] is the
	// globally next result.
	type head struct{ part, pos int }
	hs := make([]head, 0, len(parts))
	before := func(a, b head) bool {
		ra, rb := parts[a.part][a.pos], parts[b.part][b.pos]
		if ra.Score != rb.Score {
			return ra.Score > rb.Score
		}
		return ra.Doc < rb.Doc
	}
	var siftDown func(i int)
	siftDown = func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(hs) && before(hs[l], hs[min]) {
				min = l
			}
			if r < len(hs) && before(hs[r], hs[min]) {
				min = r
			}
			if min == i {
				return
			}
			hs[i], hs[min] = hs[min], hs[i]
			i = min
		}
	}
	for i, p := range parts {
		if len(p) > 0 {
			hs = append(hs, head{part: i, pos: 0})
		}
	}
	for i := len(hs)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	out := make(model.TopK, 0, min(k, 4*len(hs)))
	var seen map[model.DocID]struct{}
	if len(hs) > 1 {
		seen = make(map[model.DocID]struct{}, k)
	}
	for len(hs) > 0 && len(out) < k {
		top := hs[0]
		r := parts[top.part][top.pos]
		if seen == nil {
			out = append(out, r)
		} else if _, dup := seen[r.Doc]; !dup {
			seen[r.Doc] = struct{}{}
			out = append(out, r)
		}
		if top.pos+1 < len(parts[top.part]) {
			hs[0].pos++
		} else {
			hs[0] = hs[len(hs)-1]
			hs = hs[:len(hs)-1]
		}
		siftDown(0)
	}
	return out
}
