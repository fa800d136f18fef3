// Package core implements Sparta — the Scalable PARallel Threshold
// Algorithm, the paper's contribution (§4). Sparta parallelizes the
// NRA variant of the Threshold Algorithm with three locality /
// synchronization optimizations that the evaluation shows are each
// essential (§5.3, pNRA vs Sparta):
//
//   - Deferred upper-bound publication: a worker updates its term's
//     UB entry once per traversed segment, not per posting, so other
//     workers' cached copies are invalidated rarely (§4.3).
//   - Background cleaning: once no new candidate can enter the top-k
//     (Equation 1 holds), a cleaner task repeatedly rebuilds the shared
//     docMap without dead candidates and installs it with a single
//     pointer swing, keeping the map read-mostly and shrinking (§4.2).
//   - Per-term local replicas: when the shrinking docMap drops below
//     Φ entries, each posting list gets a termMap — a local copy of
//     just the candidates still missing that term's score — and its
//     worker stops touching shared memory altogether (§4.3). A replica
//     is cloned only from a map the cleaner has been over at least once.
//
// The structure follows Algorithm 1: posting lists are traversed in
// score order, split into segments scheduled through a shared job
// queue — a list's segments start at one block and double up to
// SegSize, whatever the phase; docHeap (guarded by one lock, with lazy
// lower-bound refresh on insert) holds the current top-k; the cleaner
// also detects safe termination, |docMap| = |docHeap|. The cleaner may
// end phase 2 sooner, once looking up the scores the candidates left
// still miss takes no longer than one more round of segments, each
// lookup priced by whether its block is in memory (Fagin, Lotem and
// Naor's Combined Algorithm); either way the answer's missing
// scores are then completed by doc-order lookups, one term per worker
// as the round is one list per worker. The cleaner is event-driven: a
// pass that does not end the query parks, and the next segment
// boundary, list end or heap insert submits it again. In the approximate
// configuration a timer (topk.IdleStop) also ends a query that has not
// proved its answer once the heap has been idle for Δ.
package core

import (
	"context"
	"sync"
	"sync/atomic"

	"sparta/internal/cmap"
	"sparta/internal/heap"
	"sparta/internal/jobqueue"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// Config toggles Sparta's individual optimizations for ablation
// studies (DESIGN.md §4). The zero value is the paper's configuration.
type Config struct {
	// UBEveryPosting publishes the term upper bound after every
	// posting instead of once per segment — undoing the deferred-UB
	// optimization of §4.3 (this is the naive pNRA behaviour).
	UBEveryPosting bool
	// NoCleanerShrink keeps the cleaner's stopping detection but
	// disables the docMap rebuild — undoing the background-cleaning
	// optimization of §4.2 (the map then only grows, and the safe
	// |docMap| = |docHeap| condition can fire only on exhaustion).
	NoCleanerShrink bool
	// SingleLockMap replaces the bucket-granular docMap locking of
	// §4.3 with one global lock.
	SingleLockMap bool
	// ProbEpsilon enables the probabilistic pruning extension (§6
	// future work, see prob.go): candidates whose probability of
	// reaching Θ falls below it are pruned, and the growing phase ends
	// once an unseen document's pass probability falls below it. Zero
	// keeps the safe deterministic bounds.
	ProbEpsilon float64
	// Phi is the docMap size below which workers clone per-term local
	// maps (defaultPhi if zero).
	Phi int
}

// defaultPhi is Sparta's local-copy threshold Φ: "in our
// implementation, Φ = 10K entries" (§4.3).
const defaultPhi = 10_000

// mapShards returns the docMap stripe count for cfg.
func (c Config) mapShards() int {
	if c.SingleLockMap {
		return 1
	}
	return cmap.DefaultShards
}

// Sparta is the algorithm bound to an index view.
type Sparta struct {
	view postings.View
	cfg  Config
}

// New creates Sparta over view.
func New(view postings.View) *Sparta { return &Sparta{view: view} }

// NewWithConfig creates Sparta with some optimizations disabled, for
// the ablation benchmarks.
func NewWithConfig(view postings.View, cfg Config) *Sparta {
	return &Sparta{view: view, cfg: cfg}
}

// Name implements topk.Algorithm.
func (s *Sparta) Name() string { return "Sparta" }

// Search implements topk.Algorithm. The exact configuration
// (opts.Exact) corresponds to Δ = ∞ and is safe: it returns the true
// top-k (§4.4), with full scores.
func (s *Sparta) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return s.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm. Cancellation is an anytime
// stop: workers notice the flipped execution flag at the next posting
// (or wake early from a simulated I/O sleep), the run finishes with the
// context's stop reason, and the current heap contents are returned.
func (s *Sparta) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return topk.Run(ctx, q, opts, s.view, func(es *topk.ExecState, view postings.View, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
		return newRun(view, q, opts, s.cfg, es).run()
	})
}

// run holds one query evaluation's shared state (Table 1).
type run struct {
	view postings.View
	q    model.Query
	opts topk.Options
	cfg  Config
	m    int
	exec *topk.ExecState

	cursors  []postings.ScoreCursor
	termJobs []func()       // termJobs[i] is processTerm(i), built once
	segLen   []int          // segLen[i] is term i's next segment; its worker's, like slabs
	left     []atomic.Int64 // left[i] is term i's postings not yet read, published per segment
	ubs      *topk.UpperBounds
	theta    atomic.Int64
	ubStop   atomic.Bool

	// store is the query's candidate memory: every docMap generation,
	// slab and replica below comes out of it, and run gives it back whole.
	store    *cmap.Store
	docMap   atomic.Pointer[cmap.Map]
	cleaned  atomic.Bool   // the cleaner has been over docMap at least once
	slabs    []*cmap.Slab  // slabs[i] allocates what term i's list discovers
	termMaps []*cmap.Table // nil => use global docMap

	heapMu  sync.Mutex
	docHeap *heap.DocHeap
	idle    *topk.IdleStop // the Δ rule; nil when exact

	done atomic.Bool // set by finish, which also stops the pool

	errMu  sync.Mutex
	runErr error

	remaining atomic.Int64 // posting lists not yet exhausted
	pool      *jobqueue.Pool

	// cleanerJob parks the cleaner between events; cleanerOn starts it.
	// The remaining cleaner fields are the single cleaner task's scratch,
	// reused from pass to pass under cleanerBusy.
	cleanerJob  *jobqueue.EventJob
	cleanerOn   sync.Once
	cleanerBusy sync.Mutex
	ubBuf       []model.Score
	probBuf     []model.Score
	inHeap      map[*cmap.DocState]bool

	// statistics
	nPostings  atomic.Int64
	nInserts   atomic.Int64
	nCleanings atomic.Int64
	peakDocs   atomic.Int64
	mapBytes   atomic.Int64
	stopReason atomic.Value // string
}

func newRun(view postings.View, q model.Query, opts topk.Options, cfg Config, es *topk.ExecState) *run {
	if cfg.Phi == 0 {
		cfg.Phi = defaultPhi
	}
	m := len(q)
	r := &run{
		view:     view,
		q:        q,
		opts:     opts,
		cfg:      cfg,
		m:        m,
		exec:     es,
		cursors:  make([]postings.ScoreCursor, m),
		termJobs: make([]func(), m),
		segLen:   make([]int, m),
		left:     make([]atomic.Int64, m),
		store:    cmap.GetStore(),
		slabs:    make([]*cmap.Slab, m),
		termMaps: make([]*cmap.Table, m),
		docHeap:  heap.GetDoc(opts.K),
		probBuf:  make([]model.Score, m),
		inHeap:   make(map[*cmap.DocState]bool, opts.K),
	}
	for i, t := range q {
		i := i
		r.cursors[i] = view.ScoreCursor(t)
		r.termJobs[i] = func() { r.processTerm(i) }
		r.segLen[i] = min(postings.BlockSize, opts.SegSize)
		r.left[i].Store(int64(r.cursors[i].Len()))
		r.slabs[i] = r.store.Slab(m)
	}
	r.idle = topk.NewIdleStop(opts, func() { r.finish("delta") })
	r.ubs = topk.NewUpperBounds(topk.TermMaxima(view, q))
	r.docMap.Store(r.store.Map(cfg.mapShards(), 4*opts.K))
	r.remaining.Store(int64(m))
	return r
}

func (r *run) run() (model.TopK, topk.Stats, error) {
	// Every return below is either before the pool exists or after
	// pool.Close() and idle.Stop() have returned: no worker, cleaner pass
	// or Δ timer is left that could reach the heap or a candidate, on any
	// stop reason. What is returned holds values, no *DocState.
	defer func() {
		heap.PutDoc(r.docHeap)
		r.store.Release()
	}()

	// Algorithm 1 lines 1–3: one PROCESSTERM job per term, up to m
	// worker threads (fewer if the pool is smaller).
	workers := r.opts.Threads
	if workers > r.m {
		workers = r.m
	}
	r.pool = jobqueue.New(workers)
	r.cleanerJob = jobqueue.NewEventJob(r.pool, r.cleaner)
	for _, job := range r.termJobs {
		r.pool.Submit(job)
	}

	// Lines 4–5 of Algorithm 1 have the main thread wait for UBStop and
	// then enqueue the cleaner. Here the worker that latches UBStop (or
	// exhausts the last list) enqueues it directly — semantically
	// identical, and the main thread is free to be a worker itself.
	//
	// Line 6: wait until done — as the pool's first worker; finish stops
	// the pool.
	r.pool.Run()
	r.idle.Stop()
	r.pool.Close()

	r.opts.Budget.Release(r.mapBytes.Load())

	var st topk.Stats
	st.Postings = r.nPostings.Load()
	st.HeapInserts = r.nInserts.Load()
	st.Cleanings = r.nCleanings.Load()
	st.CandidatesPeak = r.peakDocs.Load()
	if v := r.stopReason.Load(); v != nil {
		st.StopReason = v.(string)
	}

	r.errMu.Lock()
	err := r.runErr
	r.errMu.Unlock()
	if err != nil {
		return nil, st, err
	}

	// Line 7: return the heap contents. An answer the cleaner proved
	// first gets full scores, here and not in the cleaner: a worker may
	// still have been setting a score the completion would set too, and a
	// Δ query's answer is completed like an exact one's. The answer is
	// among the heap's members and the candidates left in docMap — a few
	// outside the heap when the cleaner ended phase 2 by lookups. The
	// two sets are joined, not assumed nested: a candidate the
	// probabilistic rule dropped may still reach the heap through a map
	// or replica a worker already held. Completed, the outsiders enter
	// the heap like any other insert, each refreshing every member's
	// bound, so the heap ends holding the k best full scores. The lookups
	// run one term per goroutine, up to Threads (lookupsCheaper).
	r.heapMu.Lock()
	if st.StopReason == "safe" || st.StopReason == "prob" {
		var cands []*cmap.DocState
		r.docMap.Load().Range(func(d *cmap.DocState) bool {
			if !r.docHeap.Contains(d) {
				cands = append(cands, d)
			}
			return true
		})
		outside := len(cands)
		cands = append(cands, r.docHeap.Items()...)
		st.RandomAccesses = topk.CompleteScores(r.view, r.q, r.ubs, cands, r.opts.Threads)
		for _, d := range cands[:outside] {
			if evicted, _ := r.docHeap.UpdateInsert(d); evicted != d {
				st.HeapInserts++
			}
		}
	}
	res := r.docHeap.Results()
	r.heapMu.Unlock()
	return res, st, nil
}

// signalPhase1 starts the cleaner task (line 5), and before it the Δ
// timer: like the paper's, our Δ rule belongs to the shrinking phase,
// whose heap is full.
func (r *run) signalPhase1() {
	if !r.done.Load() {
		r.cleanerOn.Do(func() {
			r.idle.Arm() // first: the cleaner's first pass may end the query
			r.cleanerJob.Start()
		})
	}
}

// finish sets done and stops the pool, which ends the main thread's
// wait. The first caller's reason wins.
func (r *run) finish(reason string) {
	if r.done.CompareAndSwap(false, true) {
		r.stopReason.Store(reason)
		r.pool.Stop()
	}
}

// fail aborts the query with err.
func (r *run) fail(err error) {
	r.errMu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	r.errMu.Unlock()
	r.finish("oom")
}

// checkUBStop evaluates Equation 1 (Σ UB[i] <= Θ) and, once it holds,
// latches ubStop and unblocks phase 2. Called after UB segment updates
// and after Θ increases.
func (r *run) checkUBStop() {
	if r.ubStop.Load() {
		return
	}
	theta := model.Score(r.theta.Load())
	if theta <= 0 {
		// Θ = 0 means the heap is not full yet; with strictly positive
		// scores Eq. 1 can only hold once every list is exhausted,
		// which signalPhase1 handles via the remaining counter.
		return
	}
	stop := r.ubs.Sum() <= theta
	if !stop && r.cfg.ProbEpsilon > 0 {
		// Probabilistic variant: end the growing phase once a brand-new
		// document (no known scores) is unlikely to reach Θ.
		buf := r.ubs.Snapshot(nil)
		stop = passProbability(0, theta, buf) < r.cfg.ProbEpsilon
	}
	if stop {
		if r.ubStop.CompareAndSwap(false, true) {
			r.signalPhase1()
		}
	}
}

// processTerm is Algorithm 1's PROCESSTERM(i): traverse the next
// segment of term i's posting list, then re-enqueue itself (line 25).
func (r *run) processTerm(i int) {
	if r.done.Load() {
		return
	}
	if r.exec.Stopped() {
		r.finish(r.exec.StopReason()) // anytime stop: heap keeps best-so-far
		return
	}
	r.exec.SegmentScheduled(i)
	// Lines 9–12: once the map is shrinking and small, clone the
	// entries still missing this term's score into a local replica and
	// stop touching shared memory. Only a map the cleaner has been over
	// is worth cloning: the growing-phase map is mostly dead candidates,
	// and a replica never drops an entry again.
	if r.termMaps[i] == nil && r.cleaned.Load() {
		if dm := r.docMap.Load(); dm.Len() < r.cfg.Phi {
			tm := r.store.Table(dm.Len())
			dm.Range(func(d *cmap.DocState) bool {
				if d.ScoreAt(i) == 0 {
					tm.Put(d)
				}
				return true
			})
			r.termMaps[i] = tm
		}
	}

	// Counted in locals and published once, however the segment ends:
	// the shared counters cost a cache-line transfer per update.
	var nPostings, nCreated, peak int64
	defer func() {
		r.nPostings.Add(nPostings)
		r.left[i].Add(-nPostings)
		r.mapBytes.Add(nCreated * cmap.DocStateBytes)
		for old := r.peakDocs.Load(); peak > old && !r.peakDocs.CompareAndSwap(old, peak); {
			old = r.peakDocs.Load()
		}
	}()

	// A list is read one block first and the segment doubles each round
	// up to SegSize, in either phase: Equation 1 sees every list's bound
	// after m blocks rather than m × SegSize postings, and after UBStop a
	// short segment brings the cleaner's next pass, which may end phase 2
	// by lookups (lookupsCheaper), sooner than a whole SegSize round would.
	n := r.segLen[i]
	r.segLen[i] = min(2*n, r.opts.SegSize)
	c := r.cursors[i]
	var last model.Score
	for j := 0; j < n; j++ {
		if r.done.Load() {
			return // line 14
		}
		if r.exec.Stopped() {
			r.finish(r.exec.StopReason())
			return
		}
		if !c.Next() {
			// List exhausted: no unseen postings remain, so this
			// term's bound drops to zero.
			r.ubs.Set(i, 0)
			r.checkUBStop()
			if r.remaining.Add(-1) == 0 {
				r.signalPhase1()
			}
			r.cleanerJob.Notify() // after remaining: a pass that sees this event sees the list gone
			return
		}
		nPostings++
		doc, score := c.Doc(), c.Score() // line 15
		last = score
		if r.cfg.UBEveryPosting {
			r.ubs.Set(i, score) // ablation: per-posting publication
		}

		// Line 16: resolve the candidate through the term's map.
		var d *cmap.DocState
		if tm := r.termMaps[i]; tm != nil {
			d = tm.Get(doc)
			if d == nil {
				// Either already scored for this term or no longer a
				// candidate; both mean skip.
				continue
			}
		} else {
			// Read the latch before the lookup: "absent" only means
			// "irrelevant" (line 21) if the hash was already complete when
			// it was searched. Checked the other way round, a worker held up
			// between the two would skip a candidate created meanwhile.
			complete := r.ubStop.Load()
			dm := r.docMap.Load()
			if complete {
				if d = dm.Get(doc); d == nil {
					continue // line 21: hash complete, doc irrelevant
				}
			} else {
				created := false
				d, created = dm.GetOrCreate(doc, func() *cmap.DocState {
					if err := r.opts.Budget.Charge(cmap.DocStateBytes); err != nil {
						return nil
					}
					return r.slabs[i].New(doc)
				})
				if d == nil {
					r.fail(membudget.ErrMemoryBudget)
					return
				}
				if created {
					nCreated++
					peak = max(peak, int64(dm.Len()))
				}
			}
		}

		d.SetScore(i, score) // line 22
		if d.LB() > model.Score(r.theta.Load()) {
			r.updateHeap(d) // line 23
		}
	}

	// Line 24: deferred UB publication — once per segment, not per
	// posting, so readers' cache lines are invalidated rarely.
	r.ubs.Set(i, last)
	r.checkUBStop()
	r.cleanerJob.Notify()

	// Line 25: schedule the next segment of the same list.
	r.pool.Submit(r.termJobs[i])
}

// updateHeap is Algorithm 1's UPDATE_HEAP: all heap and Θ updates are
// serialized under one lock (§4.3), with the lazy lower-bound refresh
// inside DocHeap.UpdateInsert.
func (r *run) updateHeap(d *cmap.DocState) {
	r.heapMu.Lock()
	if !r.docHeap.Contains(d) {
		_, theta := r.docHeap.UpdateInsert(d)
		r.theta.Store(int64(theta))
		r.nInserts.Add(1)
		r.exec.HeapUpdate(d.ID, d.CachedLB)
		r.idle.Touch() // after the observers: their cost is not idleness
		if r.opts.Probe != nil && r.opts.Probe.ShouldObserve() {
			r.opts.Probe.Observe(r.docHeap.Results())
		}
		r.heapMu.Unlock()
		r.checkUBStop()
		r.cleanerJob.Notify() // Θ or the heap's membership moved
		return
	}
	r.heapMu.Unlock()
}

// cleaner is Algorithm 1's CLEANER task. Each pass rebuilds the docMap
// without entries that can no longer reach the top-k, installs the copy
// with a single pointer swing and evaluates the stopping conditions:
// |docMap| = |docHeap|, and once the hash is complete lookupsCheaper,
// which ends phase 2 with candidates still outside the heap for run() to
// complete. A pass that does not end the query parks instead of going
// round again (line 48): its outcome can only change when a term bound
// falls, a list ends, or Θ or the heap's membership moves, and each of
// those events re-submits it (cleanerJob.Notify). On the paper's
// 12-core box the cleaner occupies a spare hardware thread; here it
// shares the query's workers, so it must not hold one while it has
// nothing to do.
func (r *run) cleaner() {
	if r.done.Load() {
		return
	}
	if r.exec.Stopped() {
		r.finish(r.exec.StopReason())
		return
	}
	r.cleanerBusy.Lock()
	defer r.cleanerBusy.Unlock()
	r.nCleanings.Add(1)

	// Read before any state the events announce, so an event that lands
	// during this pass sends the cleaner round again instead of parking.
	epoch := r.cleanerJob.Epoch()
	// Likewise read before the bounds: if the lists were already drained
	// here, the snapshot below holds their final (zero) bounds; if UBStop
	// had latched, no document outside the map can beat the Θ below.
	drained := r.remaining.Load() == 0
	latched := r.ubStop.Load()

	old := r.docMap.Load()
	theta := model.Score(r.theta.Load())
	r.ubBuf = r.ubs.Snapshot(r.ubBuf)

	// Heap membership must be read under the heap lock; snapshot it.
	clear(r.inHeap)
	r.heapMu.Lock()
	for _, d := range r.docHeap.Items() {
		r.inHeap[d] = true
	}
	heapLen := r.docHeap.Len()
	r.heapMu.Unlock()

	// Lines 41–45. The paper guards the rebuild with |docMap| > Φ; we
	// rebuild on every pass — below Φ the pass is cheap, and continuing
	// to clean is what lets the safe stopping condition
	// |docMap| = |docHeap| eventually hold.
	tmp := old
	if !r.cfg.NoCleanerShrink {
		// old is retired, not reused: a worker may still be probing it.
		tmp = r.store.Map(r.cfg.mapShards(), heapLen*2)
		old.Range(func(d *cmap.DocState) bool {
			// A heap member's bound is at least the Θ read above (Θ only
			// rises), so the membership lookup is for the few that reach it.
			if probRelevant(d, theta, r.ubBuf, r.cfg.ProbEpsilon, r.probBuf) || d.LB() >= theta && r.inHeap[d] {
				tmp.Put(d) // line 44: still relevant
			}
			return true
		})
		if dropped := old.Len() - tmp.Len(); dropped > 0 {
			// Released per candidate; its slab chunk goes only with its
			// last sibling (cmap.DocStateBytes bounds the difference).
			bytes := int64(dropped) * cmap.DocStateBytes
			r.opts.Budget.Release(bytes)
			r.mapBytes.Add(-bytes)
		}
		r.docMap.Store(tmp) // line 45: single pointer swing
		r.exec.CleanerPass(tmp.Len(), old.Len()-tmp.Len())
	}
	r.cleaned.Store(true) // after the swing: whoever sees it loads a cleaned map

	// Lines 46–47: stopping conditions; after the second, run() completes
	// tmp's candidates.
	if tmp.Len() == heapLen || latched && r.lookupsCheaper(tmp) {
		if r.cfg.ProbEpsilon > 0 {
			r.finish("prob") // pruned probabilistically: not safe
		} else {
			r.finish("safe")
		}
		return
	}
	if drained {
		// Every posting list was exhausted before the bounds were read,
		// so they were final and the heap holds the exact top-k, yet the
		// map did not shrink to it: the NoCleanerShrink ablation. With
		// the rebuild on, final bounds prune everything outside the heap,
		// and lists that drain during a pass raise an event that sends
		// the cleaner round once more — so a query that can stop safe
		// reports safe at any core count.
		r.finish("exhausted")
		return
	}
	// The Δ rule is not among them: its timer (r.idle) ends the query on
	// its own, whether or not a pass can run.
	r.cleanerJob.Park(epoch)
}

// ResidentLookupPostings is what a lookup whose block is resident
// (postings.View.Resident) costs, in phase-2 postings. Such a lookup
// reads nothing: it is a search of the resident block directory and one
// doc-block decode. On the RAM store at one thread, `calibrate`'s
// "lookup price" line times it at 0.81 µs on the CW corpus, against
// 65 ns for the floor of a phase-2 posting (score-cursor step, docMap
// probe, score set), medians of ten passes on a 2-CPU host: a ratio of
// 12.5 (10.8–13.1). That bounds the price from above, since reading on
// also schedules segments and runs cleaner passes the floor leaves out.
// Below it the whole query decides: on the ram_long pool at Threads 1
// prices 4 and 8 do the same work (2 436 postings and 190 lookups per
// query), 16 reads 3 % more and 32 38 % more, and 8 ran fastest
// (BenchmarkSpartaRAMLong, medians of eight alternating runs: 552 µs
// against 574 at 16; 32 no faster in three). A lookup whose block is not
// resident keeps the price of the block it reads, postings.BlockSize:
// a cold lookup is never priced below a sequential block, so the switch
// never fires sooner on cold data than when every lookup was priced so.
// A store that charges for reads calls every block cold, even one its
// caches hold (diskindex.Index.Resident): a lookup of a block its
// decoded-block cache holds measured about 8 postings too, but priced
// so it cost the sharded workload throughput (DESIGN deviation 12).
const ResidentLookupPostings = 8

// lookupsCheaper is Fagin, Lotem and Naor's Combined Algorithm (PODS
// 2001) as a stopping condition of phase 2: once UBStop has latched,
// kept holds every document that can still beat Θ (with ProbEpsilon,
// every one likely to), so the top-k of their full scores is the answer.
// Phase 2 would read on in score order only to find their missing
// scores; a doc-order lookup finds each in one block. Lookups win when
// they take no longer than one more round of segments: SegSize of every
// live list, capped by what is left of it, against the missing
// (candidate, term) scores of live lists, each priced by where its block
// is (lookupPrice). Both sides are read by the same Threads workers — a
// round one list per worker, the lookups one term per worker
// (topk.CompleteScores) — so the worker count cancels and the switch
// falls at the same work whatever the query's Threads. The round stands
// for the rest of phase 2, not for the next segment, which is shorter
// while segments still double: priced at that, the switch fires later
// and reads more. A query with a Δ takes the switch too, so it stops
// safe as soon as an exact one would; only the NoCleanerShrink ablation
// keeps the paper's phase 2.
func (r *run) lookupsCheaper(kept *cmap.Map) bool {
	if r.cfg.NoCleanerShrink {
		return false
	}
	var round int64
	for i, ub := range r.ubBuf {
		if ub > 0 {
			round += min(int64(r.opts.SegSize), r.left[i].Load())
		}
	}
	var price int64
	kept.Range(func(d *cmap.DocState) bool {
		for i, ub := range r.ubBuf {
			if ub > 0 && d.ScoreAt(i) == 0 {
				price += r.lookupPrice(i, d.ID)
			}
		}
		return price <= round
	})
	return price <= round
}

// lookupPrice is the phase-2 postings one lookup of doc d in term i's
// list is worth: ResidentLookupPostings when its block is resident, the
// block it reads otherwise. The probe charges nothing.
func (r *run) lookupPrice(i int, d model.DocID) int64 {
	if r.view.Resident(r.q[i], d) {
		return ResidentLookupPostings
	}
	return postings.BlockSize
}

var _ topk.Algorithm = (*Sparta)(nil)
