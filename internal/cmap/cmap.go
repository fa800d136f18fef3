// Package cmap provides the candidate-document state used by the
// score-order algorithms (Sparta, pNRA, pJASS): a striped concurrent
// hash map from document id to accumulated per-term scores, and the
// per-query Store that Sparta's and pNRA's candidate memory comes from.
//
// The paper protects "each hash bucket by a granular lock, which
// performs better than the generic Java concurrent hashmap" (§4.3);
// here each of a fixed number of stripes is a flat open-addressed Table
// under its own mutex, giving the same bucket-granular contention
// profile. The map's size is tracked with an atomic counter so Sparta's
// cleaner and termMap logic can poll |docMap| without locking every
// stripe.
//
// DocState carries the per-term partial scores. Score slots are written
// by the worker currently traversing that term's posting list and read
// concurrently by other workers and the cleaner. The paper's Java
// implementation leaves those reads racy; in Go a racy read is
// undefined behaviour, so slots are accessed with sync/atomic — free on
// x86 loads and keeps `go test -race` clean (see DESIGN.md §4).
//
// # The store's lifecycle
//
// A query checks a Store out of a pool (GetStore), takes from it every
// docMap generation (Store.Map: the growing-phase map and one per
// cleaner pass), one Slab per posting list and one replica Table per
// termMap, and gives the Store back whole (Release). A generation the
// cleaner has replaced is retired, not reused: a worker that loaded the
// old pointer may still be probing it, so it stays as it is until the
// query's workers and timers are gone — the paper's JVM collects such
// maps, here they wait for Release and then serve the next query. No
// *DocState may outlive the Release of the store it was carved from. A
// Map from New / NewWithShards belongs to no store and is collected
// like any other value.
//
// The pool is outside the memory budget, like the heap and decode-buffer
// pools: membudget is charged DocStateBytes when a candidate is created
// and released the same amount when the cleaner drops it or the query
// ends, which bounds the candidates a query may hold at once, not the
// bytes idle Stores retain between queries (sync.Pool evicts those).
//
// # Why active prefixes
//
// A table in use is the active prefix of a retained buffer, sized for
// the entries it is about to hold, so clearing, iterating and growing
// it cost in proportion to its live entries. Reusing the Go maps this
// package used to be built from does not have that property — a
// recycled map is cleared and iterated in proportion to the largest
// query it ever held — and measured worse than allocating fresh on the
// benchmark's disk_voice workload, whose queries range from one term
// to twelve and whose candidate peak reaches 12 492 (p95): qps
// 618/608/560 → 523/580/531 in three pairs, cpu_ms_per_query +7…+16 %,
// six cleaner generations per query each paying for 16–32 K empty
// slots. Tables whose active size follows the live entries read
// 613/625 → 656/646 on the same workload (both from the prototypes that
// sized this design; results/candidate_store.txt has the final runs).
package cmap

import (
	"sync"
	"sync/atomic"

	"sparta/internal/model"
)

// DocStateBytes approximates the footprint of one candidate entry
// (table slot + DocState + score vector) for membudget accounting. It
// counts candidates, not allocations: candidates are carved from Slab
// chunks, a chunk of a pooled Store is kept for the next query rather
// than freed, and a chunk of a bare Slab is collected only once none of
// the up to slabMaxChunk candidates in it is referenced. A budget
// release for a dropped candidate therefore says that the query holds
// one candidate fewer, not that the process holds 96 bytes less.
const DocStateBytes = 96

// DocState is the per-candidate accumulator: the paper's DocType
// ⟨id, score[m], LB⟩ (Table 1).
type DocState struct {
	// ID is the document.
	ID model.DocID

	// scores[i] is the term score for query term i, 0 if not yet seen.
	// Accessed atomically.
	scores []int64

	// lb is the running lower bound: the sum of known term scores.
	// Maintained incrementally by SetScore.
	lb atomic.Int64

	// CachedLB is the lower bound snapshot used for heap ordering; the
	// heap recomputes it under its own lock (Sparta's lazy LB update,
	// Algorithm 1 lines 30-32). Guarded by the heap's lock.
	CachedLB model.Score

	// HeapIdx is the position in the document heap, or -1 when not in
	// the heap. Guarded by the heap's lock.
	HeapIdx int
}

// NewDocState creates a candidate for an m-term query.
func NewDocState(id model.DocID, m int) *DocState {
	return &DocState{ID: id, scores: make([]int64, m), HeapIdx: -1}
}

// NumTerms returns the score-vector length m.
func (d *DocState) NumTerms() int { return len(d.scores) }

// SetScore records term i's score. Each (document, term) pair is set at
// most once — a posting appears once per list and one worker owns a
// list at a time — so the lower bound advances by s exactly. That is why
// a score completion (topk.CompleteScores) runs only once the query's
// workers are gone, and gives each term to one of its own goroutines: a
// lookup and a worker, or two lookups, that both set the same pair would
// count it twice.
func (d *DocState) SetScore(i int, s model.Score) {
	atomic.StoreInt64(&d.scores[i], int64(s))
	d.lb.Add(int64(s))
}

// ScoreAt returns term i's recorded score (0 = not seen).
func (d *DocState) ScoreAt(i int) model.Score {
	return model.Score(atomic.LoadInt64(&d.scores[i]))
}

// LB returns the current lower bound: the sum of known term scores.
func (d *DocState) LB() model.Score {
	return model.Score(d.lb.Load())
}

// UB returns the upper bound UB(D) = Σ (score[i] > 0 ? score[i] : ub[i])
// given the current per-term upper bounds (Table 1).
func (d *DocState) UB(ub []model.Score) model.Score {
	var sum model.Score
	for i := range d.scores {
		if s := model.Score(atomic.LoadInt64(&d.scores[i])); s > 0 {
			sum += s
		} else {
			sum += ub[i]
		}
	}
	return sum
}

// DefaultShards is the stripe count of New. 64 stripes keep bucket
// contention negligible at the paper's 12-thread scale.
const DefaultShards = 64

// Map is the striped concurrent docMap: each stripe is a Table under
// its own mutex.
type Map struct {
	shards []shard
	shift  uint // 64 - log2(len(shards)): the hash's top bits pick the stripe
	count  atomic.Int64
}

type shard struct {
	mu sync.Mutex
	t  Table
}

// New creates an empty map sized for about sizeHint entries with the
// default stripe count.
func New(sizeHint int) *Map { return NewWithShards(DefaultShards, sizeHint) }

// NewWithShards creates a map with an explicit stripe count (rounded up
// to a power of two). nShards = 1 degenerates to a single global lock —
// the configuration the global-lock ablation benchmark measures. The
// map belongs to no Store: when it is dropped it is simply collected.
func NewWithShards(nShards, sizeHint int) *Map {
	m := new(Map)
	m.init(nShards, sizeHint)
	return m
}

// init readies m, new or cleared, for about sizeHint entries in nShards
// stripes. The stripes of a new map are carved from two allocations.
func (m *Map) init(nShards, sizeHint int) {
	n, skip := 1, uint(0) // the hash bits that pick the stripe
	for n < nShards {
		n, skip = 2*n, skip+1
	}
	size := tableSize(sizeHint / n)
	if len(m.shards) != n {
		m.shards = make([]shard, n)
		m.shift = 64 - skip
		keys, vals := make([]uint32, n*size), make([]*DocState, n*size)
		for i := range m.shards {
			lo, hi := i*size, (i+1)*size
			m.shards[i].t.keys, m.shards[i].t.vals = keys[lo:lo:hi], vals[lo:lo:hi]
		}
	}
	for i := range m.shards {
		m.shards[i].t.init(size, skip)
	}
}

// clear empties a quiescent map, at a cost that follows its entries.
func (m *Map) clear() {
	for i := range m.shards {
		m.shards[i].t.clear()
	}
	m.count.Store(0)
}

func (m *Map) shardFor(h uint64) *shard {
	return &m.shards[h>>m.shift] // one stripe: a shift by 64 is 0
}

// Get returns the candidate for id, or nil.
func (m *Map) Get(id model.DocID) *DocState {
	h := hash(id)
	s := m.shardFor(h)
	s.mu.Lock()
	d := s.t.get(h, id)
	s.mu.Unlock()
	return d
}

// GetOrCreate returns the candidate for id, creating it with create()
// if absent. created reports whether create ran (under the bucket
// lock). When create returns nil the entry is not inserted and nil is
// returned — that is how callers abort insertion on a failed memory
// budget charge without a second lock round trip.
func (m *Map) GetOrCreate(id model.DocID, create func() *DocState) (d *DocState, created bool) {
	h := hash(id)
	s := m.shardFor(h)
	s.mu.Lock()
	i, ok := s.t.find(h, id)
	if ok {
		d = s.t.vals[i]
	} else if d = create(); d != nil {
		s.t.insert(i, h, d)
		created = true
	}
	s.mu.Unlock()
	if created {
		m.count.Add(1)
	}
	return d, created
}

// Put inserts or replaces the candidate for id.
func (m *Map) Put(d *DocState) {
	h := hash(d.ID)
	s := m.shardFor(h)
	s.mu.Lock()
	existed := s.t.put(h, d)
	s.mu.Unlock()
	if !existed {
		m.count.Add(1)
	}
}

// Len returns the entry count. It is exact when the map is quiescent
// and a close approximation under concurrent inserts, which is all the
// cleaner's |docMap| polling needs.
func (m *Map) Len() int { return int(m.count.Load()) }

// Range calls f on every entry until f returns false. Each shard is
// locked only while it is being walked; entries inserted concurrently
// may or may not be visited.
func (m *Map) Range(f func(d *DocState) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		more := s.t.each(f)
		s.mu.Unlock()
		if !more {
			return
		}
	}
}

// Snapshot returns all entries. Order is unspecified.
func (m *Map) Snapshot() []*DocState {
	out := make([]*DocState, 0, m.Len())
	m.Range(func(d *DocState) bool {
		out = append(out, d)
		return true
	})
	return out
}
