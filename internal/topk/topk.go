// Package topk defines the framework shared by every retrieval
// algorithm in this repository: the Algorithm interface, run options
// (thread count, exactness, the Δ / f / p approximation knobs of §5.3),
// run statistics, the atomic per-term upper-bound vector of the
// Threshold Algorithm, the recall-dynamics probe behind Figures 3f–3g,
// and a brute-force reference implementation used as ground truth by
// tests and recall measurements.
package topk

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/stats"
)

// DefaultK is the paper's retrieval depth: k = 1000, chosen because
// simple tf-idf retrieval is the first phase of multi-stage ranking
// (§5.1).
const DefaultK = 1000

// DefaultSegSize is the posting-list segment length of the
// segment-scheduled algorithms (the paper uses large segments when m
// threads are available, §4.2). For Sparta it is the cap of segments
// that start at one block and double (DESIGN.md §4a deviation 10).
const DefaultSegSize = 1024

// Options parameterizes a query evaluation.
type Options struct {
	// K is the retrieval depth (DefaultK if zero).
	K int
	// Threads is the intra-query parallelism (1 if zero). Sequential
	// algorithms ignore it.
	Threads int
	// Exact requests safe evaluation: TA-family algorithms run with
	// Δ = ∞, pBMW with f = 1, pJASS with p = 1.
	Exact bool
	// Delta is the TA-family approximation knob: stop when the heap has
	// not changed for Delta (§4: "stopping after the heap does not
	// change for some Δ time"). Ignored when Exact.
	Delta time.Duration
	// BoostF is pBMW's threshold-relax factor f >= 1 (§5.2.1). Ignored
	// when Exact.
	BoostF float64
	// FracP is pJASS's fraction of postings to process, 0 < p <= 1
	// (§5.2.1). Ignored when Exact.
	FracP float64
	// SegSize is the posting-list segment length for segment-scheduled
	// algorithms (DefaultSegSize if zero): pNRA, pJASS, pRA and the TA
	// family use it as is; Sparta grows every list's segments from one
	// block up to it, in either phase.
	SegSize int
	// Budget caps candidate-state memory; exceeded => ErrMemoryBudget
	// (the paper's OOM "N/A" entries). Nil = unlimited.
	Budget *membudget.Budget
	// Probe, when non-nil, receives heap snapshots for the
	// recall-dynamics figures.
	Probe *RecallProbe
	// Observer, when non-nil, receives the query's execution events
	// (see the Observer interface). Nil = no observation.
	Observer Observer
}

// Validate reports configuration errors a zero-value-tolerant API
// would otherwise only surface as confusing behaviour.
func (o Options) Validate() error {
	if o.K < 0 {
		return fmt.Errorf("topk: K must be non-negative, got %d", o.K)
	}
	if o.Threads < 0 {
		return fmt.Errorf("topk: Threads must be non-negative, got %d", o.Threads)
	}
	if o.Delta < 0 {
		return fmt.Errorf("topk: Delta must be non-negative, got %v", o.Delta)
	}
	if o.BoostF != 0 && o.BoostF < 1 {
		return fmt.Errorf("topk: BoostF must be >= 1, got %v", o.BoostF)
	}
	if o.FracP != 0 && (o.FracP <= 0 || o.FracP > 1) {
		return fmt.Errorf("topk: FracP must be in (0,1], got %v", o.FracP)
	}
	if o.SegSize < 0 {
		return fmt.Errorf("topk: SegSize must be non-negative, got %d", o.SegSize)
	}
	if o.Exact && o.Delta > 0 {
		return fmt.Errorf("topk: Exact and Delta are mutually exclusive")
	}
	if o.Exact && o.BoostF > 1 {
		return fmt.Errorf("topk: Exact and BoostF > 1 are mutually exclusive")
	}
	if o.Exact && o.FracP != 0 && o.FracP < 1 {
		return fmt.Errorf("topk: Exact and FracP < 1 are mutually exclusive")
	}
	return nil
}

// WithDefaults fills zero fields with the documented defaults.
func (o Options) WithDefaults() Options {
	if o.K == 0 {
		o.K = DefaultK
	}
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.SegSize == 0 {
		o.SegSize = DefaultSegSize
	}
	if o.BoostF == 0 {
		o.BoostF = 1
	}
	if o.FracP == 0 {
		o.FracP = 1
	}
	return o
}

// Stats reports what a query evaluation did. All counts are
// machine-independent work metrics; Duration includes simulated I/O.
type Stats struct {
	// Duration is the wall-clock evaluation time.
	Duration time.Duration
	// Postings is the number of posting entries traversed.
	Postings int64
	// RandomAccesses counts by-document score lookups (RA family, and
	// the NRA family's completion of any answer it stopped safe on —
	// Sparta's also prob).
	RandomAccesses int64
	// HeapInserts counts successful top-k heap insertions. Sparta's
	// include the completed candidates a query inserts after ending
	// phase 2 by lookups that enter the heap.
	HeapInserts int64
	// CandidatesPeak is the largest candidate-map size observed.
	CandidatesPeak int64
	// Cleanings counts cleaner passes (Sparta).
	Cleanings int64
	// StopReason records why evaluation ended ("exhausted", "ubstop",
	// "delta", "safe", "fraction", ...).
	StopReason string
	// ShardsDropped is the number of index shards that did not deliver
	// a complete result to a scatter/gather query (deadline expiry,
	// error, or health-trip skip) — zero for single-index evaluation.
	// The returned top-k is still valid over the shards that answered
	// (the anytime contract, per shard).
	ShardsDropped int
}

// Algorithm is a top-k retrieval strategy bound to an index.
type Algorithm interface {
	// Name returns the algorithm's report name ("Sparta", "pBMW", ...).
	Name() string
	// Search evaluates q and returns the (possibly approximate) top-k.
	// An Exact answer that is not an anytime stop is BruteForce's bytes,
	// scores included, up to which of the documents tied at the k-th
	// score it keeps — so exact answers over disjoint document ranges
	// merge with MergeTopK alone. Equivalent to SearchContext with
	// context.Background().
	Search(q model.Query, opts Options) (model.TopK, Stats, error)
	// SearchContext evaluates q under ctx. Cancellation and deadline
	// expiry are anytime stops, not errors: the call returns the
	// best-so-far partial top-k with Stats.StopReason set to
	// StopCancelled or StopDeadline and a nil error. Invalid opts are
	// an error (Options.Validate). Every single-index algorithm's
	// SearchContext is one call to Run.
	SearchContext(ctx context.Context, q model.Query, opts Options) (model.TopK, Stats, error)
}

// UpperBounds is the Threshold Algorithm's UB[m] vector (Table 1):
// UB[i] bounds the term scores of documents not yet visited in term
// i's posting list. Entries start at the term's maximum score (the
// tightest bound available before traversal; the paper's "∞" is only
// notational) and only decrease as traversal descends the impact list.
// Writers are the single worker currently owning a term's list; readers
// are everyone, hence atomics (§4.3 discusses exactly this sharing).
type UpperBounds struct {
	vals []atomic.Int64
}

// NewUpperBounds creates the vector initialized to each term's max.
func NewUpperBounds(maxima []model.Score) *UpperBounds {
	u := &UpperBounds{vals: make([]atomic.Int64, len(maxima))}
	for i, m := range maxima {
		u.vals[i].Store(int64(m))
	}
	return u
}

// Set lowers (or sets) term i's bound.
func (u *UpperBounds) Set(i int, s model.Score) { u.vals[i].Store(int64(s)) }

// Get returns term i's bound.
func (u *UpperBounds) Get(i int) model.Score { return model.Score(u.vals[i].Load()) }

// Sum returns Σ UB[i] — the left side of the UBStop condition (Eq. 1).
func (u *UpperBounds) Sum() model.Score {
	var sum model.Score
	for i := range u.vals {
		sum += model.Score(u.vals[i].Load())
	}
	return sum
}

// Snapshot copies the vector into buf (reallocating if needed) for
// repeated UB(D) evaluations without per-entry atomic traffic.
func (u *UpperBounds) Snapshot(buf []model.Score) []model.Score {
	if cap(buf) < len(u.vals) {
		buf = make([]model.Score, len(u.vals))
	}
	buf = buf[:len(u.vals)]
	for i := range u.vals {
		buf[i] = model.Score(u.vals[i].Load())
	}
	return buf
}

// Len returns m.
func (u *UpperBounds) Len() int { return len(u.vals) }

// RecallProbe records how an algorithm's result set converges to the
// exact top-k over time — the recall-dynamics measurement of Figures
// 3f–3g. Algorithms call Observe with their current result snapshot;
// the probe timestamps the recall relative to Start.
type RecallProbe struct {
	exact model.TopK
	start time.Time

	mu     sync.Mutex
	series stats.Series
	// MinInterval rate-limits observations (default 1ms).
	MinInterval time.Duration
	last        time.Time
	acc         *bestK // accumulator for ObserveInsert mode
}

// NewRecallProbe creates a probe against the exact result.
func NewRecallProbe(exact model.TopK) *RecallProbe {
	return &RecallProbe{exact: exact, MinInterval: time.Millisecond}
}

// Start marks time zero. Algorithms call it on entry.
func (p *RecallProbe) Start() {
	p.mu.Lock()
	p.start = time.Now()
	p.last = time.Time{}
	p.acc = nil
	p.mu.Unlock()
}

// ShouldObserve reports whether an observation now would be recorded.
// Building a heap snapshot can be costly (k=1000 under a shared lock),
// so algorithms check this before materializing one.
func (p *RecallProbe) ShouldObserve() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last.IsZero() || time.Since(p.last) >= p.MinInterval
}

// Observe records the recall of approx at the current instant.
// Observations closer than MinInterval to the previous one are dropped
// to bound probe overhead.
func (p *RecallProbe) Observe(approx model.TopK) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.last.IsZero() && now.Sub(p.last) < p.MinInterval {
		return
	}
	p.last = now
	p.series.Record(now.Sub(p.start), model.Recall(p.exact, approx))
}

// ObserveInsert feeds one accepted (doc, score) into the probe's own
// top-k accumulator and records its recall. Algorithms whose result
// state is scattered across thread-local heaps (pBMW) or a candidate
// map with no heap at all (pJASS) use this mode: the probe maintains
// the globally-merged view for them. A document fed more than once —
// JASS feeds its growing score after every posting — counts once, at
// its best score.
func (p *RecallProbe) ObserveInsert(doc model.DocID, score model.Score) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.acc == nil {
		p.acc = &bestK{k: max(len(p.exact), 1), pos: make(map[model.DocID]int)}
	}
	p.acc.push(doc, score)
	if !p.last.IsZero() && now.Sub(p.last) < p.MinInterval {
		return
	}
	p.last = now
	p.series.Record(now.Sub(p.start), model.Recall(p.exact, p.acc.results()))
}

// bestK keeps the k documents with the highest best scores: a min-heap
// on score that knows each member's position, so a member fed again
// with a higher score moves up in place instead of entering twice. A
// document outside it that is fed a lower score than before is still
// rejected: the threshold it fell below only rises.
type bestK struct {
	k    int
	heap []model.Result
	pos  map[model.DocID]int
}

func (b *bestK) push(doc model.DocID, score model.Score) {
	if i, ok := b.pos[doc]; ok {
		if score > b.heap[i].Score {
			b.heap[i].Score = score
			b.down(i)
		}
		return
	}
	if len(b.heap) < b.k {
		b.heap = append(b.heap, model.Result{Doc: doc, Score: score})
		b.pos[doc] = len(b.heap) - 1
		b.up(len(b.heap) - 1)
		return
	}
	if score <= b.heap[0].Score {
		return
	}
	delete(b.pos, b.heap[0].Doc)
	b.heap[0] = model.Result{Doc: doc, Score: score}
	b.pos[doc] = 0
	b.down(0)
}

func (b *bestK) results() model.TopK {
	out := append(model.TopK(nil), b.heap...)
	out.Sort()
	return out
}

func (b *bestK) swap(i, j int) {
	b.heap[i], b.heap[j] = b.heap[j], b.heap[i]
	b.pos[b.heap[i].Doc], b.pos[b.heap[j].Doc] = i, j
}

func (b *bestK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if b.heap[parent].Score <= b.heap[i].Score {
			return
		}
		b.swap(i, parent)
		i = parent
	}
}

func (b *bestK) down(i int) {
	for {
		least := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(b.heap) && b.heap[c].Score < b.heap[least].Score {
				least = c
			}
		}
		if least == i {
			return
		}
		b.swap(i, least)
		i = least
	}
}

// Final records a last observation regardless of rate limiting.
func (p *RecallProbe) Final(approx model.TopK) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.series.Record(now.Sub(p.start), model.Recall(p.exact, approx))
}

// Series returns the recorded (elapsed, recall) points.
func (p *RecallProbe) Series() *stats.Series {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.series
	return &s
}

// BruteForce computes the exact top-k by fully scoring every document
// that appears in any query term's posting list. It is the ground
// truth for correctness tests and recall measurement — deliberately
// simple, with no early termination to get wrong.
func BruteForce(v postings.View, q model.Query, k int) model.TopK {
	if k <= 0 {
		k = DefaultK
	}
	acc := make(map[model.DocID]model.Score)
	for _, t := range q {
		c := v.DocCursor(t)
		for c.Next() {
			acc[c.Doc()] += c.Score()
		}
	}
	all := make(model.TopK, 0, len(acc))
	for d, s := range acc {
		all = append(all, model.Result{Doc: d, Score: s})
	}
	all.Sort()
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TermMaxima collects the per-term maximum scores of q — the initial
// upper-bound vector.
func TermMaxima(v postings.View, q model.Query) []model.Score {
	out := make([]model.Score, len(q))
	for i, t := range q {
		out[i] = v.MaxScore(t)
	}
	return out
}
