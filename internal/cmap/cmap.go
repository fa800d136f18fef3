// Package cmap provides the shared candidate-document state used by the
// score-order algorithms (Sparta, pNRA, pJASS): a striped concurrent
// hash map from document id to accumulated per-term scores.
//
// The paper protects "each hash bucket by a granular lock, which
// performs better than the generic Java concurrent hashmap" (§4.3);
// here each of a fixed number of shards carries its own mutex, giving
// the same bucket-granular contention profile. The map's size is
// tracked with an atomic counter so Sparta's cleaner and termMap logic
// can poll |docMap| without locking every shard.
//
// DocState carries the per-term partial scores. Score slots are written
// by the worker currently traversing that term's posting list and read
// concurrently by other workers and the cleaner. The paper's Java
// implementation leaves those reads racy; in Go a racy read is
// undefined behaviour, so slots are accessed with sync/atomic — free on
// x86 loads and keeps `go test -race` clean (see DESIGN.md §4).
package cmap

import (
	"sync"
	"sync/atomic"

	"sparta/internal/model"
)

// DocStateBytes approximates the heap footprint of one candidate entry
// (map bucket + DocState + score vector) for membudget accounting. It
// counts candidates, not allocations: a candidate carved from a Slab
// shares its chunk with up to slabMaxChunk-1 siblings, and the chunk is
// only collected once none of them is referenced, so a budget release
// for a dropped candidate can run ahead of the memory actually freed by
// at most one chunk (slabMaxChunk × (DocState + m scores)) per term.
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

// Slab allocates the candidates one posting list discovers. A list is
// traversed by one worker at a time, so a slab needs no lock; it carves
// DocStates and their score vectors out of two chunked arrays — two
// allocations per chunk instead of two per candidate. Chunks double
// from slabMinChunk to slabMaxChunk entries, so a short list costs
// little and a long one amortizes; a chunk lives as long as any of its
// candidates is referenced (see DocStateBytes for what that means for
// the memory budget).
type Slab struct {
	m      int
	next   int // entries in the next chunk
	states []DocState
	scores []int64
}

const (
	slabMinChunk = 16
	slabMaxChunk = 1024
)

// NewSlab creates a slab for an m-term query. Nothing is allocated
// until the first candidate.
func NewSlab(m int) *Slab { return &Slab{m: m, next: slabMinChunk} }

// New returns a fresh candidate, equal to NewDocState(id, m): zero
// scores in a vector no other candidate shares, not in the heap.
func (s *Slab) New(id model.DocID) *DocState {
	if len(s.states) == cap(s.states) {
		s.states = make([]DocState, 0, s.next)
		s.scores = make([]int64, s.next*s.m)
		if s.next < slabMaxChunk {
			s.next *= 2
		}
	}
	n := len(s.states)
	s.states = s.states[:n+1]
	d := &s.states[n]
	d.ID = id
	// The capacity is capped too, so a vector can never be appended
	// into its neighbour.
	d.scores = s.scores[n*s.m : (n+1)*s.m : (n+1)*s.m]
	d.HeapIdx = -1
	return d
}

// NumTerms returns the score-vector length m.
func (d *DocState) NumTerms() int { return len(d.scores) }

// SetScore records term i's score. Each (document, term) pair is set at
// most once — a posting appears once per list and one worker owns a
// list at a time — so the lower bound advances by s exactly.
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

// Map is the striped concurrent docMap.
type Map struct {
	shards []shard
	shift  uint
	count  atomic.Int64
}

type shard struct {
	mu sync.Mutex
	m  map[model.DocID]*DocState
}

// New creates an empty map sized for about sizeHint entries with the
// default stripe count.
func New(sizeHint int) *Map { return NewWithShards(DefaultShards, sizeHint) }

// NewWithShards creates a map with an explicit stripe count (rounded up
// to a power of two). nShards = 1 degenerates to a single global lock —
// the configuration the global-lock ablation benchmark measures.
func NewWithShards(nShards, sizeHint int) *Map {
	n := 1
	for n < nShards {
		n *= 2
	}
	m := &Map{shards: make([]shard, n)}
	shift := uint(64)
	for s := n; s > 1; s /= 2 {
		shift--
	}
	m.shift = shift
	per := sizeHint / n
	if per < 4 {
		per = 4
	}
	for i := range m.shards {
		m.shards[i].m = make(map[model.DocID]*DocState, per)
	}
	return m
}

func (m *Map) shardFor(id model.DocID) *shard {
	if len(m.shards) == 1 {
		return &m.shards[0]
	}
	// Fibonacci hashing spreads dense ids across shards.
	return &m.shards[(uint64(id)*0x9e3779b97f4a7c15)>>m.shift]
}

// Get returns the candidate for id, or nil.
func (m *Map) Get(id model.DocID) *DocState {
	s := m.shardFor(id)
	s.mu.Lock()
	d := s.m[id]
	s.mu.Unlock()
	return d
}

// GetOrCreate returns the candidate for id, creating it with create()
// if absent. created reports whether create ran (under the bucket
// lock). When create returns nil the entry is not inserted and nil is
// returned — that is how callers abort insertion on a failed memory
// budget charge without a second lock round trip.
func (m *Map) GetOrCreate(id model.DocID, create func() *DocState) (d *DocState, created bool) {
	s := m.shardFor(id)
	s.mu.Lock()
	d, ok := s.m[id]
	if !ok {
		d = create()
		if d != nil {
			s.m[id] = d
			created = true
		}
	}
	s.mu.Unlock()
	if created {
		m.count.Add(1)
	}
	return d, created
}

// Put inserts or replaces the candidate for id.
func (m *Map) Put(d *DocState) {
	s := m.shardFor(d.ID)
	s.mu.Lock()
	_, existed := s.m[d.ID]
	s.m[d.ID] = d
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
		for _, d := range s.m {
			if !f(d) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
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
