package cmap

import (
	"sync"

	"sparta/internal/model"
)

// Store is one query's candidate memory: every docMap generation, every
// per-term Slab and every per-term replica Table the query asks for
// comes out of it, and Release gives them all back at once. What a
// query took is remembered in order, so the next query's first docMap
// is the buffer that held the last one's — already as large as this
// workload's growing phase makes it — and so on down the generations.
type Store struct {
	mu     sync.Mutex // check-outs come from the query's workers and its cleaner
	maps   reused[Map]
	slabs  reused[Slab]
	tables reused[Table]
}

// reused hands out its items in order, making new ones when it runs
// out, and starts over from the first after rewind.
type reused[T any] struct {
	items []*T
	n     int
}

func (r *reused[T]) next() *T {
	if r.n == len(r.items) {
		r.items = append(r.items, new(T))
	}
	r.n++
	return r.items[r.n-1]
}

// rewind returns what was handed out since the last rewind.
func (r *reused[T]) rewind() []*T {
	out := r.items[:r.n]
	r.n = 0
	return out
}

// storePool holds idle Stores; eviction is sync.Pool's own.
var storePool = sync.Pool{New: func() any { return new(Store) }}

// GetStore checks a Store out of the pool. The caller gives it back
// with Release once nothing can touch its contents any more.
func GetStore() *Store { return storePool.Get().(*Store) }

// Map returns an empty docMap like NewWithShards, from the store.
func (s *Store) Map(nShards, sizeHint int) *Map {
	s.mu.Lock()
	m := s.maps.next()
	s.mu.Unlock()
	m.init(nShards, sizeHint)
	return m
}

// Slab returns an empty slab like NewSlab, from the store.
func (s *Store) Slab(m int) *Slab {
	s.mu.Lock()
	sl := s.slabs.next()
	s.mu.Unlock()
	sl.m = m
	return sl
}

// Table returns an empty unsynchronized table for about sizeHint
// entries, from the store.
func (s *Store) Table(sizeHint int) *Table {
	s.mu.Lock()
	t := s.tables.next()
	s.mu.Unlock()
	t.init(tableSize(sizeHint), 0)
	return t
}

// Release empties everything the store handed out and returns the
// store to the pool. No goroutine may still hold a Map, Slab, Table or
// *DocState obtained from it: the next query reuses their memory.
func (s *Store) Release() {
	s.reset()
	storePool.Put(s)
}

func (s *Store) reset() {
	for _, m := range s.maps.rewind() {
		m.clear()
	}
	for _, sl := range s.slabs.rewind() {
		sl.states.rewind()
		sl.scores.rewind()
	}
	for _, t := range s.tables.rewind() {
		t.clear()
	}
}

// Slab allocates the candidates one posting list discovers. A list is
// traversed by one worker at a time, so a slab needs no lock; it carves
// DocStates and their score vectors out of chunked arrays — two
// allocations per chunk instead of two per candidate, and none once a
// Store has been through a query of the same size: chunks are kept, and
// a candidate is wiped as it is carved, not when its chunk is given
// back. Chunks double from slabMinChunk to slabMaxChunk entries, so a
// short list costs little and a long one amortizes. States and scores
// are carved independently, so a slab's chunks serve a query of any
// length. A chunk of a slab that belongs to no Store lives as long as
// any of its candidates is referenced (see DocStateBytes for what that
// means for the memory budget).
type Slab struct {
	m      int
	states arena[DocState]
	scores arena[int64]
}

const (
	slabMinChunk = 16
	slabMaxChunk = 1024
)

// NewSlab creates a slab for an m-term query that belongs to no Store.
// Nothing is allocated until the first candidate.
func NewSlab(m int) *Slab { return &Slab{m: m} }

// New returns a fresh candidate, equal to NewDocState(id, m): zero
// scores in a vector no other candidate shares, not in the heap —
// whatever the memory held before.
func (s *Slab) New(id model.DocID) *DocState {
	d := &s.states.take(1, 1)[0]
	scores := s.scores.take(s.m, s.m)
	clear(scores)
	*d = DocState{ID: id, scores: scores, HeapIdx: -1}
	return d
}

// arena carves runs of elements from a list of chunks that it keeps
// across rewinds.
type arena[T any] struct {
	chunks [][]T
	cur    int // chunks[cur] is the one being carved
	off    int // its first free element
}

// take returns n consecutive elements not handed out since the last
// rewind, their capacity capped so that appending cannot reach a
// neighbour. A new chunk, when the kept ones are used up, holds the
// next of slabMinChunk … slabMaxChunk runs of unit elements (n ≤ unit).
func (a *arena[T]) take(n, unit int) []T {
	for ; a.cur < len(a.chunks); a.cur, a.off = a.cur+1, 0 {
		if c := a.chunks[a.cur]; a.off+n <= len(c) {
			a.off += n
			return c[a.off-n : a.off : a.off]
		}
	}
	runs := min(slabMinChunk<<min(len(a.chunks), 8), slabMaxChunk)
	a.chunks = append(a.chunks, make([]T, runs*unit))
	a.off = n
	return a.chunks[a.cur][:n:n]
}

func (a *arena[T]) rewind() { a.cur, a.off = 0, 0 }
