// Package fusedexec is the fused multi-query execution engine: when a
// batch window closes (package batchexec), the terms shared by two or
// more member queries are traversed once each, block-at-a-time, scoring
// every subscribed member in a single pass — the inverted-index
// analogue of multi-query fused matrix kernels, amortizing the
// fetch+decode+scan of a hot posting list across the whole batch
// instead of only sharing the decoded bytes through the cache.
//
// Execution model, per batch:
//
//   - Members whose options the fused path cannot honor (recall probe,
//     invalid options), empty queries, members over views without the
//     postings.BlockWalker hook, and members that share no term with
//     another member all fall back to the wrapped algorithm,
//     concurrently, exactly as the per-member batch path ran them.
//   - Options.Budget is honored by charging the dense accumulator's
//     actual fixed footprint (numDocs × accBytesPerDoc) once at member
//     setup, released in full at finalization. Dense scoring has a
//     fixed memory price independent of how selective the query is; a
//     budget that cannot pay it — or whose usage would pass half its
//     limit, the headroom reserved for sparse executions sharing the
//     budget, which fail hard on exhaustion where a dense demote is
//     graceful — sends the member down the per-member fallback, whose
//     sparse candidate map charges the budget per materialized
//     candidate as always. No member ever ooms mid-walk.
//   - Each remaining member gets a dense, pool-reused score accumulator
//     keyed by global document id (shards preserve global ids), its own
//     topk.ExecState (observer + cancellation fate isolation), and a
//     subscription to each of its shared terms.
//   - Shared terms run as jobs on a small worker pool, highest term
//     upper bound first. One walk (postings.BlockWalker, hot cache
//     admission, single-flight fills) feeds every subscriber; per block
//     each subscriber is scored under its own lock.
//   - Detach rule: a member m detaches from term t at the boundary of
//     block b when detachedUB(m) + w·suffixMax_t(b) < θ(m), where
//     θ(m) is a lower bound on m's k-th best accumulated score,
//     suffixMax_t(b) bounds any posting score in blocks ≥ b, w is t's
//     multiplicity in m's query, and detachedUB(m) accumulates the
//     forfeited bounds of every earlier detach. Any document m never
//     touches then has true score ≤ detachedUB(m) < θ(m) ≤ the true
//     k-th score, so it cannot belong to the top-k: detaching is safe.
//     θ only grows, so a stale θ can only delay a detach, never
//     corrupt one. A cancelled member detaches from everything; the
//     walk stops when its subscriber count hits zero.
//   - Between detaches, members skip individual blocks BMW-style: in a
//     doc-ordered list high-impact postings are spread across the whole
//     list, so the suffix bound decays too slowly to detach early, but
//     any single block whose quantized max cannot lift a document past
//     θ is skippable. Because a document holds at most one posting per
//     term, the forfeit for all skipped blocks of one term is the MAX
//     of their block maxes, not the sum — each term carries one
//     standing forfeit that skips (and the final detach) only ever
//     raise, keeping detachedUB tight and the resolution superset
//     small. Shared walks skip just the member's scoring pass;
//     singleton walks seek the cursor past the block without decoding
//     it.
//   - A member-level upper-bound stop compounds per-term detaches —
//     Sparta's stopping rule (Eq. 1) at batch granularity. The member
//     maintains remUB, the sum over its still-attached terms of
//     w·suffixMax at each walk's frontier; the moment
//     detachedUB + remUB < θ no unseen document can reach the top-k,
//     so the member folds remUB into detachedUB, stops every one of
//     its walks, and resolves through the same candidate-superset path
//     as any detached member — the result stays exact.
//   - Singleton terms are walked on the member's own goroutine through
//     the member's bound view — the existing per-member path: cold
//     cache admission, per-member I/O and cache observer events — with
//     the same detach rule applied per block.
//   - Exactness: when a member detached anywhere, its accumulator holds
//     partial sums, but every true top-k document d satisfies
//     acc(d) ≥ θ_final − detachedUB (a missed contribution is bounded
//     by the forfeited upper bounds). The candidate set
//     {d : acc(d) ≥ θ_final − detachedUB} is therefore a superset of
//     the true top-k, and resolveTopK recomputes each candidate's exact
//     score by random access — so every member's result is the
//     reference's bytes, scores included, which is also what every
//     exact algorithm returns sequentially. A member with no detaches
//     skips resolution: its accumulator is already exact.
//
// The Delta anytime knob keeps its TA-family meaning (§4: stop once
// the top-k heap has been stable for Delta): a non-Exact member whose
// θ-heap has not changed for Delta stops — its own goroutine wakes on
// that clock rather than waiting for walkers to notice — and returns
// its accumulated top-k re-scored exactly by k random accesses, with
// StopReason "delta". The remaining knobs (BoostF, FracP) are ignored:
// the fused traversal has no boost or frontier to prune, and exact
// execution satisfies the contract they relax. Cancellation and
// deadline expiry remain anytime stops: the member detaches, returns
// the canonical top-k of its partial accumulator with StopReason
// cancelled/deadline, and its I/O settles through its own ExecState —
// Store.Unsettled()==0 holds on every completion path.
package fusedexec

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/batchexec"
	"sparta/internal/heap"
	"sparta/internal/metrics"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// StopFused is the Stats.StopReason of a fused batch member that ran to
// completion (possibly detaching early under the safe rule): the result
// is exact.
const StopFused = "fused"

// thetaEvery is how many scored blocks a member accumulates between
// incremental threshold refreshes. Refreshes are amortized O(1) per
// newly touched document (the scan position persists), so refreshing
// every block costs only the heap-threshold read while keeping θ —
// and with it every detach and upper-bound stop decision — fresh.
const thetaEvery = 1

// accBytesPerDoc is the per-document footprint charged to a member's
// Options.Budget for its dense accumulator: 8 bytes of score plus the
// touched list's 4-byte worst case. Charged once (numDocs ×
// accBytesPerDoc) at member setup, refunded at finalization.
const accBytesPerDoc = 12

// Counters is a snapshot of an Engine's activity.
type Counters struct {
	// Batches counts RunBatch invocations.
	Batches int64 `json:"batches"`
	// FusedMembers / FallbackMembers split batch members between the
	// fused path and the wrapped per-member algorithm.
	FusedMembers    int64 `json:"fused_members"`
	FallbackMembers int64 `json:"fallback_members"`
	// FusedTerms counts shared-term jobs (one traversal, ≥ 2
	// subscribers); SingleTerms counts singleton walks of fused members.
	FusedTerms  int64 `json:"fused_terms"`
	SingleTerms int64 `json:"single_terms"`
	// DetachEarly counts early member detaches under the threshold /
	// upper-bound rule (shared-term block detaches and singleton term or
	// block detaches alike).
	DetachEarly int64 `json:"detach_early"`
	// BlockSkips counts per-member block skips: blocks whose quantized
	// max could not lift any document past θ beyond the term's standing
	// forfeit, so the member skipped the scoring pass (shared walks) or
	// seeked the cursor past the block (singleton walks) while staying
	// attached.
	BlockSkips int64 `json:"block_skips"`
	// BlocksWalked counts blocks decoded-or-served by shared-term
	// traversals; BlocksSaved is Σ over those blocks of
	// (subscribers scored − 1) — the per-member block visits fusion
	// avoided.
	BlocksWalked int64 `json:"blocks_walked"`
	BlocksSaved  int64 `json:"blocks_saved"`
	// TermTraversals counts posting-list traversal passes the fused path
	// performed (shared jobs + singleton walks); FallbackTerms adds the
	// query terms of fallback members (each its own traversal in the
	// wrapped algorithm) for before/after comparisons.
	TermTraversals int64 `json:"term_traversals"`
	FallbackTerms  int64 `json:"fallback_terms"`
	// ResolveRA counts random accesses spent on exact candidate
	// resolution of detached members.
	ResolveRA int64 `json:"resolve_ra"`
	// UBStops counts member-level upper-bound stops: the member's
	// remaining upper bound fell below θ, so it stopped walking entirely
	// and resolved its candidate superset (Sparta's Eq. 1 at batch
	// granularity).
	UBStops int64 `json:"ub_stops"`
}

// Engine executes closed batches jointly. It implements
// batchexec.FusedRunner; construct one per index view and install it as
// batchexec.Config.Fused. Safe for concurrent use.
type Engine struct {
	alg      topk.Algorithm // per-member fallback path
	view     postings.View
	walker   postings.BlockWalker // nil: every member falls back
	numDocs  int
	accBytes int64 // budget charge for one dense accumulator

	accPool sync.Pool

	batches         atomic.Int64
	fusedMembers    atomic.Int64
	fallbackMembers atomic.Int64
	fusedTerms      atomic.Int64
	singleTerms     atomic.Int64
	detachEarly     atomic.Int64
	blockSkips      atomic.Int64
	blocksWalked    atomic.Int64
	blocksSaved     atomic.Int64
	termTraversals  atomic.Int64
	fallbackTerms   atomic.Int64
	resolveRA       atomic.Int64
	ubStops         atomic.Int64
}

var _ batchexec.FusedRunner = (*Engine)(nil)

// New builds an engine over view, with alg as the per-member fallback
// (normally the same algorithm batchexec wraps). If view does not
// implement postings.BlockWalker the engine still works — every member
// falls back — but gains nothing; check Supported first when wiring.
func New(alg topk.Algorithm, view postings.View) *Engine {
	e := &Engine{alg: alg, view: view, numDocs: view.NumDocs()}
	e.accBytes = int64(e.numDocs) * accBytesPerDoc
	if w, ok := view.(postings.BlockWalker); ok {
		e.walker = w
	}
	e.accPool.New = func() any {
		return &accumulator{scores: make([]model.Score, e.numDocs)}
	}
	return e
}

// Supported reports whether view implements the block-walk hook the
// fused path needs.
func Supported(view postings.View) bool {
	_, ok := view.(postings.BlockWalker)
	return ok
}

// accumulator is one member's dense score table plus the list of
// documents it actually touched (the touched list both bounds the O(k)
// threshold maintenance and lets release zero only what was written).
type accumulator struct {
	scores  []model.Score
	touched []model.DocID
}

func (f *Engine) getAcc() *accumulator {
	a := f.accPool.Get().(*accumulator)
	if len(a.scores) < f.numDocs {
		a.scores = make([]model.Score, f.numDocs)
	}
	return a
}

func (f *Engine) putAcc(a *accumulator) {
	for _, d := range a.touched {
		a.scores[d] = 0
	}
	a.touched = a.touched[:0]
	f.accPool.Put(a)
}

// single is one fused member's non-shared term.
type single struct {
	t       model.TermID
	w       model.Score // multiplicity of t in the query
	max     model.Score
	forfeit model.Score // standing per-term forfeit from skipped blocks
}

// member is one fused query's execution state. mu guards everything
// below it; shared-term walkers and the member's own goroutine both
// take it per block, so lock hold times stay bounded by one block scan.
type member struct {
	bm    *batchexec.BatchMember
	q     model.Query
	opts  topk.Options
	k     int
	es    *topk.ExecState
	bound postings.View
	start time.Time

	weights map[model.TermID]model.Score
	singles []single
	wg      sync.WaitGroup // one count per shared-term subscription

	charged int64         // bytes charged to Options.Budget at setup, released at finish
	delta   time.Duration // anytime knob: 0 in Exact mode, else Options.Delta

	stopCh   chan struct{} // closed by walkers on deltaStop/complete to wake the member
	stopOnce sync.Once

	mu          sync.Mutex
	acc         *accumulator
	thetaHeap   *heap.ScoreHeap
	scanned     int         // accumulator.touched prefix already in thetaHeap
	theta       model.Score // safe lower bound on the k-th best accumulated score
	detachedUB  model.Score // Σ forfeited upper bounds over all detaches
	remUB       model.Score // Σ over still-attached terms of w·suffixMax at the walk frontier
	dead        bool        // finalized or cancelled: walkers must not touch acc
	complete    bool        // member-level UB stop fired: result already exact
	deltaStop   bool        // anytime stop fired: walkers must stop feeding
	lastImprove time.Time   // last θ-heap change, the anytime stop's clock
	sinceTheta  int         // singleton-walk blocks since last refresh
	postings    int64
}

// signalStop wakes the member's goroutine out of its subscription wait.
func (m *member) signalStop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
}

// checkComplete applies the member-level UB stop — the fused analogue
// of Sparta's Eq. 1: once detachedUB + remUB < θ, no document outside
// the accumulator can reach the top-k, and every remaining per-term
// contribution is bounded by remUB. Folding remUB into detachedUB then
// lets the ordinary superset-resolution path deliver the exact result
// without walking another block. Caller holds m.mu; returns whether
// the stop fired.
func (m *member) checkComplete() bool {
	if m.complete {
		return true
	}
	if m.theta > 0 && m.detachedUB+m.remUB < m.theta {
		m.detachedUB += m.remUB
		m.remUB = 0
		m.complete = true
		return true
	}
	return false
}

// scoreBlock folds one decoded block into the accumulator. Caller holds
// m.mu. Zero scores are skipped to preserve the "touched ⇔ nonzero"
// invariant (term scores are positive by construction; this is a
// guard, not a hot case).
func (m *member) scoreBlock(w model.Score, post []model.Posting) {
	acc := m.acc
	if w == 1 {
		for _, p := range post {
			if p.Score == 0 {
				continue
			}
			if acc.scores[p.Doc] == 0 {
				acc.touched = append(acc.touched, p.Doc)
			}
			acc.scores[p.Doc] += p.Score
		}
	} else {
		for _, p := range post {
			if p.Score == 0 {
				continue
			}
			if acc.scores[p.Doc] == 0 {
				acc.touched = append(acc.touched, p.Doc)
			}
			acc.scores[p.Doc] += w * p.Score
		}
	}
	m.postings += int64(len(post))
}

// advanceTheta folds accumulator entries not yet scanned into the
// member's threshold heap and raises θ. Caller holds m.mu. Entries
// scanned earlier may have grown since — their heap values are stale
// underestimates — so the resulting θ is always a valid lower bound on
// the true k-th best accumulated score, which is itself a lower bound
// on the true k-th document score (partial sums underestimate). Safe,
// and amortized O(log k) per newly touched document.
func (m *member) advanceTheta() {
	acc := m.acc
	changed := false
	for _, d := range acc.touched[m.scanned:] {
		if m.thetaHeap.Push(d, acc.scores[d]) {
			changed = true
		}
	}
	m.scanned = len(acc.touched)
	if th := m.thetaHeap.Threshold(); th > m.theta {
		m.theta = th
	}
	if changed && m.delta > 0 {
		m.lastImprove = time.Now()
	}
}

// expired reports whether the member's anytime stop has fired: its
// θ-heap — the accumulated top-k — has not changed for Delta, the same
// heap-stability rule the TA-family algorithms apply (§4). A member
// that has not scored a single posting yet never expires — a
// sequential execution is always walking when its Delta clock runs,
// so queueing delay ahead of the first scored block must not count as
// heap idleness and produce an empty result. Caller holds m.mu; Exact
// members (delta 0) never expire.
func (m *member) expired() bool {
	return m.delta > 0 && len(m.acc.touched) > 0 &&
		time.Since(m.lastImprove) >= m.delta
}

// RunBatch implements batchexec.FusedRunner.
func (f *Engine) RunBatch(members []*batchexec.BatchMember) {
	f.batches.Add(1)
	var fused []*member
	var fall []*batchexec.BatchMember
	for _, bm := range members {
		if f.walker == nil || len(bm.Query) == 0 ||
			bm.Opts.Probe != nil || bm.Opts.Validate() != nil {
			fall = append(fall, bm)
			continue
		}
		m := &member{bm: bm, weights: make(map[model.TermID]model.Score, len(bm.Query))}
		if b := bm.Opts.Budget; b != nil {
			// Dense scoring's memory price is the accumulator itself,
			// paid up front — but never past half the budget's limit in
			// aggregate: sparse executions on the same budget (fallback
			// members, sibling queries) fail hard with ErrMemoryBudget
			// when it runs dry, while a dense demote is graceful, so the
			// dense side always leaves them headroom. A budget too small
			// for the accumulator runs the member on the sparse
			// per-candidate fallback instead.
			if err := b.Charge(f.accBytes); err != nil {
				fall = append(fall, bm)
				continue
			}
			if b.Used() > b.Limit()/2 {
				b.Release(f.accBytes)
				fall = append(fall, bm)
				continue
			}
			m.charged = f.accBytes
		}
		for _, t := range bm.Query {
			m.weights[t]++
		}
		fused = append(fused, m)
	}
	// Distinct-member subscription counts per term. Members none of
	// whose terms are shared gain nothing from fusion: they run the
	// existing per-member path unchanged. (Removing such a member never
	// un-shares another term — all its terms had exactly one
	// subscriber.)
	counts := make(map[model.TermID]int)
	for _, m := range fused {
		for t := range m.weights {
			counts[t]++
		}
	}
	kept := fused[:0]
	for _, m := range fused {
		shared := false
		for t := range m.weights {
			if counts[t] >= 2 {
				shared = true
				break
			}
		}
		if shared {
			kept = append(kept, m)
		} else {
			fall = append(fall, f.demote(m))
		}
	}
	fused = kept
	if len(fused) < 2 { // a shared term implies ≥ 2 subscribers, so this is 0 or ≥ 2
		for _, m := range fused {
			fall = append(fall, f.demote(m))
		}
		fused = nil
	}

	var fwg sync.WaitGroup
	for _, bm := range fall {
		bm := bm
		f.fallbackMembers.Add(1)
		f.fallbackTerms.Add(int64(len(bm.Query)))
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			bm.Finish(f.alg.SearchContext(bm.Ctx, bm.Query, bm.Opts))
		}()
	}
	if len(fused) > 0 {
		f.runFused(fused, counts)
	}
	fwg.Wait()
}

// demote returns a classified member to the fallback path, refunding
// its accumulator charge — the sparse path pays per candidate instead.
func (f *Engine) demote(m *member) *batchexec.BatchMember {
	if m.charged > 0 {
		m.bm.Opts.Budget.Release(m.charged)
		m.charged = 0
	}
	return m.bm
}

// termJob is one shared term's traversal: one walk, many subscribers.
type termJob struct {
	t    model.TermID
	max  model.Score
	subs []*subscription
}

// subscription ties one member to one shared-term job.
type subscription struct {
	m          *member
	w          model.Score
	forfeit    model.Score // standing per-term forfeit from skipped blocks
	sinceTheta int
}

// runFused executes the fused members: shared-term jobs on a worker
// pool, singleton walks and finalization on one goroutine per member.
// It returns only when every goroutine it started has finished, so
// batchexec's Drain semantics hold.
func (f *Engine) runFused(ms []*member, counts map[model.TermID]int) {
	f.fusedMembers.Add(int64(len(ms)))
	for _, m := range ms {
		m.q = m.bm.Query
		m.opts = m.bm.Opts.WithDefaults()
		m.k = m.opts.K
		m.start = time.Now()
		if !m.opts.Exact {
			m.delta = m.opts.Delta
		}
		m.lastImprove = m.start
		m.stopCh = make(chan struct{})
		m.es = topk.NewExecState(m.bm.Ctx, m.opts.Observer)
		m.es.Begin(m.q, m.opts)
		m.bound = m.es.BindView(f.view)
		m.acc = f.getAcc()
		m.thetaHeap = heap.NewScore(m.k)
	}
	jobs := make(map[model.TermID]*termJob)
	for _, m := range ms {
		for t, w := range m.weights {
			if counts[t] >= 2 {
				j := jobs[t]
				if j == nil {
					j = &termJob{t: t, max: f.view.MaxScore(t)}
					jobs[t] = j
				}
				j.subs = append(j.subs, &subscription{m: m, w: w})
				m.wg.Add(1)
				m.remUB += w * j.max
			} else {
				max := f.view.MaxScore(t)
				m.singles = append(m.singles, single{t: t, w: w, max: max})
				m.remUB += w * max
			}
		}
		// Highest upper bound first: thresholds rise fastest, so later
		// (cheaper) terms detach earliest.
		sort.Slice(m.singles, func(i, j int) bool {
			if m.singles[i].max != m.singles[j].max {
				return m.singles[i].max > m.singles[j].max
			}
			return m.singles[i].t < m.singles[j].t
		})
		f.singleTerms.Add(int64(len(m.singles)))
	}
	ordered := make([]*termJob, 0, len(jobs))
	for _, j := range jobs {
		ordered = append(ordered, j)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].max != ordered[j].max {
			return ordered[i].max > ordered[j].max
		}
		return ordered[i].t < ordered[j].t
	})
	f.fusedTerms.Add(int64(len(ordered)))

	work := make(chan *termJob, len(ordered))
	for _, j := range ordered {
		work <- j
	}
	close(work)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ordered) {
		workers = len(ordered)
	}
	var jwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		jwg.Add(1)
		go func() {
			defer jwg.Done()
			for j := range work {
				f.runSharedJob(j)
			}
		}()
	}
	var mwg, helpers sync.WaitGroup
	for _, m := range ms {
		m := m
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			f.runMember(m, &helpers)
		}()
	}
	mwg.Wait()
	jwg.Wait()
	helpers.Wait()
}

// runSharedJob walks one shared term once, scoring every live
// subscriber per block and applying the detach rule at each block
// boundary. Every subscription is released (wg.Done) exactly once: at
// detach, at cancellation, or at walk end.
func (f *Engine) runSharedJob(job *termJob) {
	meta := f.walker.DocBlockMeta(job.t)
	suffix := postings.SuffixMax(meta)
	active := job.subs
	// Align each subscriber's remUB share from the term's MaxScore
	// (what setup could see) to the block-quantized suffix bound the
	// walk actually detaches against.
	var s0 model.Score
	if len(suffix) > 0 {
		s0 = suffix[0]
	}
	for _, s := range active {
		s.m.mu.Lock()
		s.m.remUB += s.w * (s0 - job.max)
		s.m.mu.Unlock()
	}
	f.termTraversals.Add(1)
	f.walker.WalkDocBlocks(context.Background(), job.t, true, func(blk int, post []model.Posting) bool {
		kept := active[:0]
		scored := 0
		for _, s := range active {
			m := s.m
			m.mu.Lock()
			if m.dead || m.complete || m.es.Stopped() {
				m.mu.Unlock()
				m.wg.Done()
				continue
			}
			if m.deltaStop || m.expired() {
				m.deltaStop = true
				m.mu.Unlock()
				m.signalStop()
				m.wg.Done()
				continue
			}
			next := model.Score(0)
			if blk+1 < len(suffix) {
				next = suffix[blk+1]
			}
			// Full detach: leave the walk, the new forfeit (a doc misses
			// at most one posting of t, bounded by the remaining suffix
			// max) superseding any block forfeits already paid on t.
			if df := max(s.forfeit, s.w*suffix[blk]); m.theta > 0 && m.detachedUB-s.forfeit+df < m.theta {
				m.detachedUB += df - s.forfeit
				m.remUB -= s.w * suffix[blk]
				m.mu.Unlock()
				f.detachEarly.Add(1)
				m.wg.Done()
				continue
			}
			// Block skip: this block's quantized max cannot lift any
			// document past θ beyond what t's standing forfeit already
			// covers — stay subscribed, skip the scoring pass.
			if bf := max(s.forfeit, s.w*meta[blk].Max); m.theta > 0 && m.detachedUB-s.forfeit+bf < m.theta {
				m.detachedUB += bf - s.forfeit
				s.forfeit = bf
				m.remUB -= s.w * (suffix[blk] - next)
				if m.checkComplete() {
					m.mu.Unlock()
					f.ubStops.Add(1)
					m.signalStop()
					m.wg.Done()
					continue
				}
				m.mu.Unlock()
				f.blockSkips.Add(1)
				kept = append(kept, s)
				continue
			}
			m.scoreBlock(s.w, post)
			s.sinceTheta++
			if s.sinceTheta >= thetaEvery {
				s.sinceTheta = 0
				m.advanceTheta()
			}
			m.remUB -= s.w * (suffix[blk] - next)
			if m.checkComplete() {
				m.mu.Unlock()
				f.ubStops.Add(1)
				m.signalStop()
				m.wg.Done()
				continue
			}
			m.mu.Unlock()
			scored++
			kept = append(kept, s)
		}
		f.blocksWalked.Add(1)
		if scored > 1 {
			f.blocksSaved.Add(int64(scored - 1))
		}
		active = kept
		return len(active) > 0
	})
	for _, s := range active {
		s.m.mu.Lock()
		if !s.m.dead { // a cancelled member finalized underneath the walk
			s.m.advanceTheta()
		}
		s.m.mu.Unlock()
		s.m.wg.Done()
	}
}

// runMember drives one fused member: it waits out its shared-term
// subscriptions first — every shared walk raises θ, so by the time the
// singleton tail runs most of it detaches up front or the member-level
// UB stop has already fired — then walks its singleton terms through
// its own bound view, then finalizes. The wait is fate-isolated: the
// member's own cancellation, anytime expiry, or UB stop wakes it
// without waiting out another member's work.
func (f *Engine) runMember(m *member, helpers *sync.WaitGroup) {
	wgDone := make(chan struct{})
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		m.wg.Wait()
		close(wgDone)
	}()
	// An anytime member finalizes on its own clock rather than waiting
	// for shared walks to notice its expiry: finishMember marks it dead
	// and the walkers release its subscriptions as they reach their next
	// block, exactly as on cancellation.
	if m.delta == 0 {
		select {
		case <-wgDone:
		case <-m.es.Context().Done():
		case <-m.stopCh:
		}
	} else {
		for {
			m.mu.Lock()
			expired := m.deltaStop || m.expired()
			if expired {
				m.deltaStop = true
			}
			rem := m.delta - time.Since(m.lastImprove)
			m.mu.Unlock()
			if expired {
				break
			}
			if rem <= 0 {
				// Nothing scored yet (expired refuses to fire on an empty
				// accumulator): re-arm a full Delta and rely on wgDone /
				// stopCh to wake us sooner.
				rem = m.delta
			}
			timer := time.NewTimer(rem)
			stop := false
			select {
			case <-wgDone:
				stop = true
			case <-m.es.Context().Done():
				stop = true
			case <-m.stopCh:
				stop = true
			case <-timer.C:
			}
			timer.Stop()
			if stop {
				break
			}
		}
	}
	for i := range m.singles {
		if m.es.Stopped() {
			break
		}
		s := &m.singles[i]
		m.mu.Lock()
		if m.deltaStop || m.complete {
			m.mu.Unlock()
			break
		}
		skip := m.theta > 0 && m.detachedUB+s.w*s.max < m.theta
		if skip {
			m.detachedUB += s.w * s.max
			m.remUB -= s.w * s.max
		}
		m.mu.Unlock()
		if skip {
			f.detachEarly.Add(1)
			continue
		}
		f.walkSingle(m, s)
	}
	f.finishMember(m)
}

// walkSingle traverses one singleton term through the member's bound
// cursor — per-member cache admission and observer I/O events, like the
// unfused path — scoring block-aligned chunks under the member's lock
// and applying the detach rule at each block boundary.
func (f *Engine) walkSingle(m *member, s *single) {
	meta := f.walker.DocBlockMeta(s.t)
	if len(meta) == 0 {
		return
	}
	suffix := postings.SuffixMax(meta)
	// Align the term's remUB share from MaxScore to the block-quantized
	// suffix bound the walk detaches and decrements against.
	m.mu.Lock()
	m.remUB += s.w * (suffix[0] - s.max)
	m.mu.Unlock()
	c := m.bound.DocCursor(s.t)
	f.termTraversals.Add(1)
	var buf [postings.BlockSize]model.Posting
	n := 0
	// pending: the cursor is already positioned on the first unconsumed
	// posting (SkipTo lands on one; Next would lose it).
	pending := false
	for blk := 0; blk < len(meta); blk++ {
		if m.es.Stopped() {
			return
		}
		m.mu.Lock()
		if m.complete {
			m.mu.Unlock()
			return
		}
		if m.deltaStop || m.expired() {
			m.deltaStop = true
			m.mu.Unlock()
			m.signalStop()
			return
		}
		next := model.Score(0)
		if blk+1 < len(suffix) {
			next = suffix[blk+1]
		}
		// Full detach: forfeit the rest of the list, superseding any
		// block forfeits already paid on this term.
		if df := max(s.forfeit, s.w*suffix[blk]); m.theta > 0 && m.detachedUB-s.forfeit+df < m.theta {
			m.detachedUB += df - s.forfeit
			m.remUB -= s.w * suffix[blk]
			m.mu.Unlock()
			f.detachEarly.Add(1)
			return
		}
		// Block skip: seek the cursor past the block without decoding it.
		if bf := max(s.forfeit, s.w*meta[blk].Max); m.theta > 0 && m.detachedUB-s.forfeit+bf < m.theta {
			m.detachedUB += bf - s.forfeit
			s.forfeit = bf
			m.remUB -= s.w * (suffix[blk] - next)
			complete := m.checkComplete()
			m.mu.Unlock()
			f.blockSkips.Add(1)
			if complete {
				f.ubStops.Add(1)
				m.signalStop()
				return
			}
			if !c.SkipTo(meta[blk].Last + 1) {
				return
			}
			pending = true
			continue
		}
		m.mu.Unlock()
		for n < postings.BlockSize {
			if pending {
				pending = false
			} else if !c.Next() {
				if n > 0 {
					// List exhausted mid-block: everything from blk on is
					// slack.
					f.flushSingle(m, s, buf[:n], s.w*suffix[blk])
				}
				return
			}
			buf[n] = model.Posting{Doc: c.Doc(), Score: c.Score()}
			n++
		}
		if !f.flushSingle(m, s, buf[:n], s.w*(suffix[blk]-next)) {
			return
		}
		n = 0
	}
}

// flushSingle scores one block-aligned chunk and retires slack — the
// drop in this term's remaining upper-bound share now that the chunk's
// block is behind the frontier; false means the member finalized
// underneath us (cancelled) or completed, and the walk must stop.
func (f *Engine) flushSingle(m *member, s *single, chunk []model.Posting, slack model.Score) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead || m.complete {
		return false
	}
	m.scoreBlock(s.w, chunk)
	m.sinceTheta++
	if m.sinceTheta >= thetaEvery {
		m.sinceTheta = 0
		m.advanceTheta()
	}
	m.remUB -= slack
	if m.checkComplete() {
		f.ubStops.Add(1)
		m.signalStop()
		return false
	}
	return true
}

// finishMember computes the member's final result and delivers it.
// Exactly one call per member (the member's own goroutine). After dead
// is set under the lock no walker touches the accumulator again, so it
// recycles safely even when shared jobs are still draining.
func (f *Engine) finishMember(m *member) {
	m.mu.Lock()
	m.dead = true
	acc := m.acc
	m.acc = nil
	detached := m.detachedUB
	stopped := m.es.Stopped()
	deltaStop := m.deltaStop
	m.mu.Unlock()
	if m.charged > 0 {
		m.opts.Budget.Release(m.charged)
	}

	var res model.TopK
	var ra int64
	reason := StopFused
	switch {
	case stopped:
		// Anytime partial: best-so-far by accumulated (lower-bound)
		// scores.
		res = canonicalTopK(acc, m.k)
		reason = m.es.StopReason()
	case deltaStop:
		// Heap-stability stop: return the accumulated top-k, re-scored
		// exactly by random access — k accesses, so the anytime exit
		// stays cheap while the returned scores are true document
		// scores rather than partial sums.
		top := canonicalTopK(acc, m.k)
		cands := make([]model.DocID, len(top))
		for i, r := range top {
			cands[i] = r.Doc
		}
		res, ra = resolveTopK(m.q, m.bound, cands, m.k)
		f.resolveRA.Add(ra)
		reason = "delta"
	case detached == 0:
		// Every term fully traversed: accumulated scores are exact.
		res = canonicalTopK(acc, m.k)
	default:
		theta := exactThreshold(acc, m.k)
		floor := theta - detached
		cands := make([]model.DocID, 0, m.k*2)
		for _, d := range acc.touched {
			if acc.scores[d] >= floor {
				cands = append(cands, d)
			}
		}
		res, ra = resolveTopK(m.q, m.bound, cands, m.k)
		f.resolveRA.Add(ra)
	}
	f.putAcc(acc)

	st := topk.Stats{
		Duration:       time.Since(m.start),
		Postings:       m.postings,
		RandomAccesses: ra,
		StopReason:     reason,
	}
	m.es.Finish(st, nil)
	m.bm.Finish(res, st, nil)
}

// resolveTopK recomputes the exact score of every candidate by per-term
// random access against v (the member's bound view, which its ExecState
// settles) and returns the canonical top-k plus the accesses charged.
// Any candidate superset of the true top-k resolves to the reference's
// bytes: documents outside it score strictly below the true k-th score.
func resolveTopK(q model.Query, v postings.View, cands []model.DocID, k int) (model.TopK, int64) {
	var ra int64
	resolved := make(model.TopK, 0, len(cands))
	for _, d := range cands {
		var s model.Score
		for _, t := range q {
			if ts, ok := v.RandomAccess(t, d); ok {
				s += ts
			}
			ra++
		}
		resolved = append(resolved, model.Result{Doc: d, Score: s})
	}
	resolved.Sort()
	if len(resolved) > k {
		resolved = resolved[:k]
	}
	return resolved, ra
}

// exactThreshold returns the k-th best accumulated score (0 when fewer
// than k documents were touched) by a full rescan — the final, exact θ.
func exactThreshold(acc *accumulator, k int) model.Score {
	if len(acc.touched) < k {
		return 0
	}
	h := heap.NewScore(k)
	for _, d := range acc.touched {
		h.Push(d, acc.scores[d])
	}
	return h.Threshold()
}

// canonicalTopK selects the k best accumulated scores in canonical
// order (descending score, ascending doc — the reference BruteForce
// order). A bounded heap finds the k-th score; the boundary is then
// re-selected by filter + sort, because the heap's first-come tie
// eviction does not match the canonical doc-id tiebreak.
func canonicalTopK(acc *accumulator, k int) model.TopK {
	if len(acc.touched) == 0 {
		return model.TopK{}
	}
	th := exactThreshold(acc, k)
	out := make(model.TopK, 0, k)
	for _, d := range acc.touched {
		if s := acc.scores[d]; s >= th {
			out = append(out, model.Result{Doc: d, Score: s})
		}
	}
	out.Sort()
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Counters returns a snapshot of the engine's counters.
func (f *Engine) Counters() Counters {
	return Counters{
		Batches:         f.batches.Load(),
		FusedMembers:    f.fusedMembers.Load(),
		FallbackMembers: f.fallbackMembers.Load(),
		FusedTerms:      f.fusedTerms.Load(),
		SingleTerms:     f.singleTerms.Load(),
		DetachEarly:     f.detachEarly.Load(),
		BlockSkips:      f.blockSkips.Load(),
		BlocksWalked:    f.blocksWalked.Load(),
		BlocksSaved:     f.blocksSaved.Load(),
		TermTraversals:  f.termTraversals.Load(),
		FallbackTerms:   f.fallbackTerms.Load(),
		ResolveRA:       f.resolveRA.Load(),
		UBStops:         f.ubStops.Load(),
	}
}

// RegisterMetrics exposes the fused counters on r under prefix —
// batchexec.RegisterMetrics calls it with its own prefix, so the
// metrics appear as batch.fused_terms, batch.fused_members,
// batch.detach_early, batch.fused_blocks_saved, and friends.
func (f *Engine) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.RegisterFunc(prefix+".fused_terms", func() any { return f.fusedTerms.Load() })
	r.RegisterFunc(prefix+".fused_members", func() any { return f.fusedMembers.Load() })
	r.RegisterFunc(prefix+".detach_early", func() any { return f.detachEarly.Load() })
	r.RegisterFunc(prefix+".fused_block_skips", func() any { return f.blockSkips.Load() })
	r.RegisterFunc(prefix+".fused_blocks_saved", func() any { return f.blocksSaved.Load() })
	r.RegisterFunc(prefix+".fused_blocks_walked", func() any { return f.blocksWalked.Load() })
	r.RegisterFunc(prefix+".fused_fallback_members", func() any { return f.fallbackMembers.Load() })
	r.RegisterFunc(prefix+".fused_single_terms", func() any { return f.singleTerms.Load() })
	r.RegisterFunc(prefix+".fused_traversals", func() any { return f.termTraversals.Load() })
	r.RegisterFunc(prefix+".fused_resolve_ra", func() any { return f.resolveRA.Load() })
	r.RegisterFunc(prefix+".fused_ub_stops", func() any { return f.ubStops.Load() })
}
