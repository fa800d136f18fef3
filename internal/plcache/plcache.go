// Package plcache is an application-level cache of decoded posting
// blocks — the "hot list" tier real serving stacks put above the OS
// page cache. The simulated page cache (package iomodel) holds raw
// file pages and still charges CPU-side decode work on every hit; this
// cache holds blocks after decoding, keyed by (term, region, block), so
// a hit skips both the reader-accounting round trip and the decode.
// Query logs are sharply Zipfian in their term distribution, which is
// exactly the regime where a small decoded-block cache absorbs most of
// the traffic.
//
// Memory is accounted against a membudget.Budget: every insertion
// charges the decoded bytes before it is visible and evicts
// least-recently-used blocks until the charge fits, so the cache can
// never exceed its budget — the same reservation discipline the
// query-side candidate maps use.
//
// Admission is two-touch by default: a block's first Put only records
// its key in a small per-stripe ghost set and is rejected; the block
// is admitted when Put again while still remembered. One long cold
// scan therefore costs a few KB of ghost keys instead of flushing the
// resident hot set.
//
// The cache is safe for concurrent use and striped to keep concurrent
// queries off one lock. Cached slices are shared read-only across
// queries; cursors must never write into a slice obtained from Get.
package plcache

import (
	"errors"
	"sync"
	"sync/atomic"

	"sparta/internal/membudget"
	"sparta/internal/model"
)

// Kind distinguishes the posting regions of one term, so doc-ordered,
// impact-ordered and per-shard blocks of the same term never collide.
type Kind uint16

const (
	// KindDoc is the document-ordered region.
	KindDoc Kind = 0
	// KindImpact is the impact-ordered region.
	KindImpact Kind = 1
	// kindShardBase is the first shard region; shard s is kindShardBase+s.
	kindShardBase Kind = 2
)

// KindShard returns the Kind of shard s's impact-ordered region.
func KindShard(s int) Kind { return kindShardBase + Kind(s) }

// Key identifies one decoded posting block of one index. A cache must
// not be shared between distinct indexes (keys would collide); share it
// across the queries of one index instead.
type Key struct {
	Term  model.TermID
	Kind  Kind
	Block int32
}

// postingBytes is the accounted in-memory size of one decoded posting
// (model.Posting: uint32 doc + int64 score, padded).
const postingBytes = 16

// entryOverhead approximates the per-entry bookkeeping bytes (map cell,
// LRU links, slice header).
const entryOverhead = 96

// entryBytes is the accounted size of a cached block of n postings.
func entryBytes(n int) int64 { return int64(n)*postingBytes + entryOverhead }

// cacheStripes segments the cache to keep concurrent queries off one
// lock.
const cacheStripes = 16

// ghostKeys is the per-stripe capacity of the recent-miss ghost set
// backing two-touch admission. Ghost entries are keys only (no
// postings), so the filter's footprint is a few KB per stripe while
// its window — stripes × ghostKeys recently rejected blocks — is wide
// enough that a genuinely re-touched block is still remembered.
const ghostKeys = 256

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Inserts   int64
	Evictions int64
	// AdmissionRejects counts Puts turned away by the two-touch filter
	// (the block's key was only remembered in the ghost set; a repeat
	// Put within the window is admitted).
	AdmissionRejects int64
	// DupFillsSuppressed counts GetOrFill callers that were served by a
	// concurrent caller's fill instead of decoding (and charging the
	// store for) the same block themselves — the redundant work the
	// single-flight gate removes under concurrent query load.
	DupFillsSuppressed int64
	// InFlightFills is the number of fills currently executing (a gauge,
	// not a counter): how many distinct blocks are being decoded for this
	// cache right now.
	InFlightFills int64
	// Bytes is the accounted decoded-block memory currently held.
	Bytes int64
	// Entries is the number of cached blocks.
	Entries int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a sharded LRU of decoded posting blocks with two-touch
// admission.
type Cache struct {
	budget  *membudget.Budget
	stripes []stripe

	hits       atomic.Int64
	misses     atomic.Int64
	inserts    atomic.Int64
	evictions  atomic.Int64
	admRejects atomic.Int64
	bytes      atomic.Int64
	entries    atomic.Int64
	attached   atomic.Bool

	// Single-flight gate for GetOrFill: at most one fill per key runs at
	// a time; concurrent missers wait on the leader's result instead of
	// decoding (and charging the store for) the same block again.
	fillMu        sync.Mutex
	fills         map[Key]*fill
	dupSuppressed atomic.Int64
	inFlight      atomic.Int64
}

// fill is one in-flight block decode. The leader closes done after
// publishing post/err; waiters read both only after done.
type fill struct {
	done    chan struct{}
	waiters atomic.Int64
	post    []model.Posting
	err     error
}

type stripe struct {
	mu    sync.Mutex
	table map[Key]*entry
	head  *entry // most recently used
	tail  *entry // least recently used

	// Recent-miss ghost set for two-touch admission: a fixed FIFO ring
	// of keys rejected on their first Put, plus a membership map. Only
	// keys live here — no posting data, no budget charge.
	ghost     map[Key]struct{}
	ghostRing [ghostKeys]Key
	ghostPos  int
	ghostLen  int
}

type entry struct {
	key        Key
	post       []model.Posting
	bytes      int64
	prev, next *entry
}

// NewWithBudget creates a cache holding at most limitBytes of decoded
// blocks (<= 0 means unbounded — tests only; serving should always
// bound it).
func NewWithBudget(limitBytes int64) *Cache {
	return newCache(membudget.New(limitBytes), cacheStripes)
}

// newCache creates a cache over the given number of stripes charging
// budget.
func newCache(budget *membudget.Budget, stripes int) *Cache {
	c := &Cache{
		budget:  budget,
		stripes: make([]stripe, stripes),
		fills:   make(map[Key]*fill),
	}
	for i := range c.stripes {
		c.stripes[i].table = make(map[Key]*entry)
		c.stripes[i].ghost = make(map[Key]struct{}, ghostKeys)
	}
	return c
}

// Budget returns the cache's memory budget.
func (c *Cache) Budget() *membudget.Budget { return c.budget }

func (c *Cache) stripeFor(k Key) *stripe {
	if len(c.stripes) == 1 {
		return &c.stripes[0]
	}
	h := (uint64(k.Term)*0x9e3779b97f4a7c15 ^ uint64(k.Kind)*0x85ebca6b) + uint64(k.Block)*0xc2b2ae35
	return &c.stripes[h%uint64(len(c.stripes))]
}

// Get returns the decoded block for k, if cached. The returned slice is
// shared: read-only, never written, never returned to a pool.
func (c *Cache) Get(k Key) ([]model.Posting, bool) {
	st := c.stripeFor(k)
	st.mu.Lock()
	e, ok := st.table[k]
	if ok {
		st.moveToFront(e)
	}
	st.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.post, true
}

// errFillAborted is returned to waiters whose leader's fill function
// panicked; the panic itself propagates on the leader's goroutine.
var errFillAborted = errors.New("plcache: concurrent fill aborted")

// GetOrFill returns the decoded block for k, running fillFn to produce
// it on a miss. Concurrent misses on the same key are single-flighted:
// exactly one caller (the leader) runs fillFn — so the store is charged
// for at most one fetch+decode per key at a time — and every concurrent
// caller waits for and shares the leader's result. filled reports
// whether this call ran fillFn.
//
// Accounting: a served waiter counts as a hit (the block reached it
// without a decode) and increments DupFillsSuppressed; the leader
// counts a miss. A successful fill is offered to the cache under the
// usual admission rules — except that a fill which had waiters is
// admitted immediately: concurrent demand is the second touch. Like
// Get, the returned slice is shared and read-only.
//
// fillFn runs outside all cache locks, so it may block on I/O; it must
// return a slice the cache may retain (never a pooled buffer).
func (c *Cache) GetOrFill(k Key, fillFn func() ([]model.Posting, error)) (post []model.Posting, filled bool, err error) {
	return c.getOrFill(k, fillFn, false)
}

// GetOrFillHot is GetOrFill with hot admission: a successful fill is
// admitted immediately instead of through the two-touch filter, for a
// caller that already knows the block will be read again soon
// (postings.BlockWalker's hot walks).
func (c *Cache) GetOrFillHot(k Key, fillFn func() ([]model.Posting, error)) (post []model.Posting, filled bool, err error) {
	return c.getOrFill(k, fillFn, true)
}

func (c *Cache) getOrFill(k Key, fillFn func() ([]model.Posting, error), hot bool) (post []model.Posting, filled bool, err error) {
	if post, ok := c.Get(k); ok {
		return post, false, nil
	}
	// Get counted the miss; join or start a fill.
	c.fillMu.Lock()
	if f, ok := c.fills[k]; ok {
		f.waiters.Add(1)
		c.fillMu.Unlock()
		// Re-label this caller's miss: it will be served by the
		// leader's decode, which is the hit the single-flight gate buys.
		c.misses.Add(-1)
		c.hits.Add(1)
		c.dupSuppressed.Add(1)
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		return f.post, false, nil
	}
	f := &fill{done: make(chan struct{})}
	c.fills[k] = f
	c.inFlight.Add(1)
	c.fillMu.Unlock()

	completed := false
	defer func() {
		if !completed { // fillFn panicked; unblock waiters before unwinding
			f.err = errFillAborted
			c.finishFill(k, f)
		}
	}()
	f.post, f.err = fillFn()
	completed = true
	if f.err == nil {
		// Concurrent demand counts as the second touch: a fill that had
		// waiters bypasses two-touch admission.
		c.put(k, f.post, hot || f.waiters.Load() > 0, true)
	}
	c.finishFill(k, f)
	if f.err != nil {
		return nil, false, f.err
	}
	return f.post, true, nil
}

// finishFill retires an in-flight fill and releases its waiters.
func (c *Cache) finishFill(k Key, f *fill) {
	c.fillMu.Lock()
	delete(c.fills, k)
	c.fillMu.Unlock()
	c.inFlight.Add(-1)
	close(f.done)
}

// Put inserts a copy of post under k, evicting least-recently-used
// blocks until the budget admits it. Under two-touch admission the
// first Put of a key only records it in the stripe's ghost set and is
// rejected; a second Put while the key is still remembered admits the
// block. If the block cannot fit even with the stripe emptied (or it is
// already cached), the cache is left as is. The caller keeps ownership
// of post.
func (c *Cache) Put(k Key, post []model.Posting) { c.put(k, post, false, false) }

// put inserts post under k. hot bypasses two-touch admission; owned
// means the caller transfers ownership of post (no defensive copy) —
// only GetOrFill uses it, whose fill contract already requires a
// retainable slice.
func (c *Cache) put(k Key, post []model.Posting, hot, owned bool) {
	need := entryBytes(len(post))
	st := c.stripeFor(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.table[k]; dup {
		return // raced with another query decoding the same block
	}
	if !hot && !st.ghostTouch(k) {
		c.admRejects.Add(1)
		return
	}
	for c.budget.Charge(need) != nil {
		if st.tail == nil {
			return // stripe empty and still over: block larger than budget share
		}
		c.evictLocked(st, st.tail)
	}
	kept := post
	if !owned {
		kept = make([]model.Posting, len(post))
		copy(kept, post)
	}
	e := &entry{key: k, post: kept, bytes: need}
	st.table[k] = e
	st.pushFront(e)
	c.inserts.Add(1)
	c.entries.Add(1)
	c.bytes.Add(need)
}

// ghostTouch reports whether k has been seen recently (second touch —
// admit, forgetting the ghost) and otherwise remembers it, displacing
// the oldest remembered key when the ring is full. Caller holds st.mu.
func (st *stripe) ghostTouch(k Key) bool {
	if _, ok := st.ghost[k]; ok {
		delete(st.ghost, k)
		return true
	}
	if st.ghostLen == ghostKeys {
		// Overwrite the oldest slot; its key may already have been
		// promoted (deleted above), in which case the delete is a no-op.
		delete(st.ghost, st.ghostRing[st.ghostPos])
	} else {
		st.ghostLen++
	}
	st.ghostRing[st.ghostPos] = k
	st.ghost[k] = struct{}{}
	st.ghostPos = (st.ghostPos + 1) % ghostKeys
	return false
}

// evictLocked removes e from st (st.mu held) and releases its budget.
func (c *Cache) evictLocked(st *stripe, e *entry) {
	st.unlink(e)
	delete(st.table, e.key)
	c.budget.Release(e.bytes)
	c.bytes.Add(-e.bytes)
	c.entries.Add(-1)
	c.evictions.Add(1)
}

// Flush empties the cache and returns all budgeted bytes.
func (c *Cache) Flush() {
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		for st.tail != nil {
			c.evictLocked(st, st.tail)
		}
		st.mu.Unlock()
	}
}

// ResetStats zeroes the hit/miss/insert/eviction counters. Held-bytes
// and entry gauges are unaffected (they track live state).
func (c *Cache) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.inserts.Store(0)
	c.evictions.Store(0)
	c.admRejects.Store(0)
	c.dupSuppressed.Store(0)
}

// Snapshot returns current counters.
func (c *Cache) Snapshot() Stats {
	return Stats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Inserts:            c.inserts.Load(),
		Evictions:          c.evictions.Load(),
		AdmissionRejects:   c.admRejects.Load(),
		DupFillsSuppressed: c.dupSuppressed.Load(),
		InFlightFills:      c.inFlight.Load(),
		Bytes:              c.bytes.Load(),
		Entries:            c.entries.Load(),
	}
}

// MarkAttached records that an index view accepted this cache (the
// disk-modeled views call it from SetPostingCache). Serving wrappers
// use Attached to reject configurations where a cache was supplied but
// never wired to a view — a silent no-op otherwise.
func (c *Cache) MarkAttached() { c.attached.Store(true) }

// Attached reports whether any view has accepted this cache.
func (c *Cache) Attached() bool { return c.attached.Load() }

func (st *stripe) pushFront(e *entry) {
	e.prev = nil
	e.next = st.head
	if st.head != nil {
		st.head.prev = e
	}
	st.head = e
	if st.tail == nil {
		st.tail = e
	}
}

func (st *stripe) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		st.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		st.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (st *stripe) moveToFront(e *entry) {
	if st.head == e {
		return
	}
	st.unlink(e)
	st.pushFront(e)
}
