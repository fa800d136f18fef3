// Package iomodel simulates the storage stack of the paper's testbed:
// disk-resident index files read through an OS page cache, with the
// cache flushed before each experiment so pages are physically read
// from disk (§5.1), on an SSD whose random reads are markedly more
// expensive than sequential ones.
//
// Why simulate: this reproduction runs in a container without a
// dedicated SSD, without the ability to flush the host page cache, and
// on a single core. The paper's workloads are disk-bound, so what makes
// its parallel algorithms scale is the overlap of I/O waits across
// threads — and goroutines overlap *simulated* waits (sleeps) exactly
// the same way, even on one core. The model therefore preserves the
// phenomena the evaluation hinges on: sequential posting-list scans are
// cheap and cache-friendly, random accesses (pRA's secondary index) are
// expensive, and a bigger-than-cache index forces physical reads.
//
// Mechanics: a Store holds named immutable byte regions ("files") and a
// shared LRU block cache standing in for the page cache. Readers view
// byte ranges; every distinct block touched while it is absent from the
// cache charges a latency — sequential (block follows the reader's
// previous block) or random. Charges accumulate per reader and are paid
// as batched time.Sleep calls so the scheduler sees realistic I/O waits
// without micro-sleep overhead. All activity is counted, so experiments
// can also report machine-independent work metrics.
//
// Faults: a FaultHook adds latency to physical fetches. A stuck read is
// nothing more than a long added charge — a reader bound to a context
// stops waiting when the context ends; package faultinject decides
// which fetches stick and for how long.
package iomodel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes the storage model.
type Config struct {
	// BlockSize is the cache-block ("page") size in bytes.
	BlockSize int
	// CacheBlocks is the page-cache capacity, in blocks.
	CacheBlocks int
	// SeqLatency is charged per block read from disk when the reader's
	// previous block immediately precedes it (readahead-friendly).
	SeqLatency time.Duration
	// RandLatency is charged per block read from disk otherwise.
	RandLatency time.Duration
	// SleepBatch is the threshold at which accumulated charges are paid
	// with a real sleep. Larger batches have less scheduler overhead
	// but coarser interleaving.
	SleepBatch time.Duration
	// NoSleep counts charges without sleeping. Unit tests use it;
	// experiments must not.
	NoSleep bool
}

// DefaultConfig mimics a mid-range SSD behind a deliberately small page
// cache (32 MB), so the reproduction's scaled-down indexes remain
// disk-resident the way the paper's full-size indexes are.
func DefaultConfig() Config {
	return Config{
		BlockSize:   8192,
		CacheBlocks: 4096, // 32 MB
		SeqLatency:  25 * time.Microsecond,
		RandLatency: 120 * time.Microsecond,
		SleepBatch:  250 * time.Microsecond,
	}
}

// RAMConfig returns a model with no I/O cost at all: the RAM-resident
// index configuration the paper also examined (§5).
func RAMConfig() Config {
	return Config{BlockSize: 8192, CacheBlocks: 1, NoSleep: true}
}

// Stats is a snapshot of storage activity.
type Stats struct {
	BlocksRead  int64 // physical block reads (cache misses)
	CacheHits   int64
	SeqReads    int64         // of BlocksRead, sequential
	RandReads   int64         // of BlocksRead, random
	ViewCalls   int64         // Reader.View invocations (reader-accounting round trips)
	Sleeps      int64         // waits that paid batched charges (each a real sleep)
	SimulatedIO time.Duration // total latency charged
}

// cacheStripes segments the page cache so concurrent workers do not
// serialize on one lock; each stripe runs its own LRU over an equal
// share of the capacity (segmented LRU, as OS page caches do). A cache
// of fewer blocks gets one stripe per block.
const cacheStripes = 16

// FaultHook is consulted on every physical block fetch (a page-cache
// miss). It returns extra simulated latency to charge on top of the
// configured sequential/random cost. A long charge models a stuck
// fetch: a reader bound to a context waits until its deadline or
// cancellation cuts the wait short (the natural shape of a hung disk
// read), while an unbound reader sleeps it out. Hooks must be safe for
// concurrent use and, for reproducible fault schedules, should be pure
// functions of (file, block) — see package faultinject.
type FaultHook func(file int, block int64) time.Duration

// Store is a simulated disk with a shared page cache.
type Store struct {
	cfg    Config
	files  []fileRegion
	stripe []cacheStripe
	fault  atomic.Pointer[FaultHook]

	blocksRead atomic.Int64
	cacheHits  atomic.Int64
	seqReads   atomic.Int64
	randReads  atomic.Int64
	viewCalls  atomic.Int64
	sleeps     atomic.Int64
	simIO      atomic.Int64 // nanoseconds
	owedNs     atomic.Int64 // charged but not yet paid (see Unsettled)
}

type cacheStripe struct {
	mu    sync.Mutex
	cap   int
	cache map[blockID]*lruEntry
	head  *lruEntry // most recent
	tail  *lruEntry // least recent
}

type fileRegion struct {
	name string
	data []byte
}

type blockID struct {
	file  int
	block int64
}

type lruEntry struct {
	id         blockID
	prev, next *lruEntry
}

// NewStore creates an empty store with cfg (zero-value fields take
// defaults from DefaultConfig). Its page cache holds exactly
// cfg.CacheBlocks blocks over min(16, CacheBlocks) stripes.
func NewStore(cfg Config) *Store {
	def := DefaultConfig()
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = def.BlockSize
	}
	if cfg.CacheBlocks <= 0 {
		cfg.CacheBlocks = def.CacheBlocks
	}
	if cfg.SleepBatch <= 0 {
		cfg.SleepBatch = def.SleepBatch
	}
	return newStore(cfg, min(cacheStripes, cfg.CacheBlocks))
}

// newStore builds a store over the given number of cache stripes; the
// first CacheBlocks%stripes stripes hold one block more than the rest,
// so the capacities sum to CacheBlocks.
func newStore(cfg Config, stripes int) *Store {
	s := &Store{cfg: cfg, stripe: make([]cacheStripe, stripes)}
	for i := range s.stripe {
		s.stripe[i].cap = cfg.CacheBlocks / stripes
		if i < cfg.CacheBlocks%stripes {
			s.stripe[i].cap++
		}
		s.stripe[i].cache = make(map[blockID]*lruEntry)
	}
	return s
}

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

// SetFaultHook installs (or, with nil, removes) the store's fault
// hook. Installing a hook mid-query is safe; in-flight readers pick it
// up on their next physical fetch.
func (s *Store) SetFaultHook(h FaultHook) {
	if h == nil {
		s.fault.Store(nil)
		return
	}
	s.fault.Store(&h)
}

// AddFile registers an immutable byte region under name and returns its
// handle. The bytes are aliased, not copied.
func (s *Store) AddFile(name string, data []byte) int {
	s.files = append(s.files, fileRegion{name: name, data: data})
	return len(s.files) - 1
}

// FileSize returns the byte length of file h.
func (s *Store) FileSize(h int) int64 { return int64(len(s.files[h].data)) }

// RawBytesOf returns file h's backing bytes without any charge — for
// serialization tooling only, never for query-time reads. The caller
// must not modify the slice.
func (s *Store) RawBytesOf(h int) []byte { return s.files[h].data }

// Lookup returns the handle of the named file.
func (s *Store) Lookup(name string) (int, error) {
	for h, f := range s.files {
		if f.name == name {
			return h, nil
		}
	}
	return 0, fmt.Errorf("iomodel: no file %q in store", name)
}

// Flush empties the page cache — the pre-experiment step of §5.1 that
// forces all pages to be physically read from disk.
func (s *Store) Flush() {
	for i := range s.stripe {
		st := &s.stripe[i]
		st.mu.Lock()
		st.cache = make(map[blockID]*lruEntry)
		st.head, st.tail = nil, nil
		st.mu.Unlock()
	}
}

// ResetStats zeroes the activity counters.
func (s *Store) ResetStats() {
	s.blocksRead.Store(0)
	s.cacheHits.Store(0)
	s.seqReads.Store(0)
	s.randReads.Store(0)
	s.viewCalls.Store(0)
	s.sleeps.Store(0)
	s.simIO.Store(0)
}

// Snapshot returns current activity counters.
func (s *Store) Snapshot() Stats {
	return Stats{
		BlocksRead:  s.blocksRead.Load(),
		CacheHits:   s.cacheHits.Load(),
		SeqReads:    s.seqReads.Load(),
		RandReads:   s.randReads.Load(),
		ViewCalls:   s.viewCalls.Load(),
		Sleeps:      s.sleeps.Load(),
		SimulatedIO: time.Duration(s.simIO.Load()),
	}
}

// Unsettled returns the latency charged to readers but not yet paid with
// a sleep — the balance cursors owe until they (or the query teardown)
// call Settle. A correctly-settled workload returns to zero between
// queries; a nonzero steady-state means abandoned cursors are walking
// away from their I/O bill.
func (s *Store) Unsettled() time.Duration { return time.Duration(s.owedNs.Load()) }

// Free reports whether the store charges nothing for a read: the RAM
// model (RAMConfig), whose readers skip the page cache altogether.
func (s *Store) Free() bool {
	return s.cfg.SeqLatency == 0 && s.cfg.RandLatency == 0 && s.cfg.NoSleep
}

// stripeFor maps a block to its cache stripe.
func (s *Store) stripeFor(id blockID) *cacheStripe {
	if len(s.stripe) == 1 {
		return &s.stripe[0]
	}
	h := uint64(id.block)*0x9e3779b97f4a7c15 ^ uint64(id.file)*0x85ebca6b
	return &s.stripe[h%uint64(len(s.stripe))]
}

// touch records an access to block id, returning whether it missed the
// cache. Caller charges latency on a miss.
func (s *Store) touch(id blockID) (miss bool) {
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.cache[id]; ok {
		st.moveToFront(e)
		return false
	}
	e := &lruEntry{id: id}
	st.cache[id] = e
	st.pushFront(e)
	if len(st.cache) > st.cap {
		evict := st.tail
		st.unlink(evict)
		delete(st.cache, evict.id)
	}
	return true
}

func (st *cacheStripe) pushFront(e *lruEntry) {
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

func (st *cacheStripe) unlink(e *lruEntry) {
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

func (st *cacheStripe) moveToFront(e *lruEntry) {
	if st.head == e {
		return
	}
	st.unlink(e)
	st.pushFront(e)
}

// CacheLen returns the number of cached blocks (for tests).
func (s *Store) CacheLen() int {
	n := 0
	for i := range s.stripe {
		st := &s.stripe[i]
		st.mu.Lock()
		n += len(st.cache)
		st.mu.Unlock()
	}
	return n
}

// Reader provides charged access to one file. A Reader must be used by
// one goroutine at a time (cursors hand readers between workers, never
// share them concurrently). Sequentiality is tracked per reader, like
// per-file-descriptor readahead state.
type Reader struct {
	store     *Store
	file      int
	lastBlock int64
	owed      time.Duration
	views     int64 // View calls not yet flushed to the store counter

	// Execution binding (see Bind): waits end early once ctx is done,
	// and every physical fetch's charged latency flows to onFetch.
	ctx     context.Context
	onFetch func(time.Duration)
	onStop  func()
}

// NewReader opens file h for charged reads.
func (s *Store) NewReader(h int) *Reader {
	return &Reader{store: s, file: h, lastBlock: -2}
}

// Bind attaches a cancellation context and optional callbacks to the
// reader. Once ctx is done, simulated waits return immediately instead
// of sleeping out their remaining charge — an I/O wait is the natural
// cancellation point of a disk-resident query. onFetch receives every
// physical fetch's charged latency; onStop fires (once) the first time
// a wait is cut short, so the caller learns about the cancellation
// synchronously — without it, a query whose sleeps have all become free
// could race through its remaining postings at memory speed before an
// asynchronously-set stop flag is visible. Any argument may be nil.
func (r *Reader) Bind(ctx context.Context, onFetch func(time.Duration), onStop func()) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // uncancellable: plain sleeps are cheaper
	}
	r.ctx = ctx
	r.onFetch = onFetch
	r.onStop = onStop
}

// pay sleeps for d, waking early if the bound context is done. Charges
// remain counted in the store's statistics either way — the block was
// already "read"; only the caller's wait is cut short.
func (r *Reader) pay(d time.Duration) {
	if r.ctx != nil && r.ctx.Err() != nil {
		r.noteStop()
		return
	}
	r.store.sleeps.Add(1)
	if r.ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-r.ctx.Done():
		t.Stop()
		r.noteStop()
	}
}

// noteStop reports a cut-short wait to the binder, once.
func (r *Reader) noteStop() {
	if r.onStop != nil {
		r.onStop()
		r.onStop = nil
	}
}

// Size returns the file length in bytes.
func (r *Reader) Size() int64 { return r.store.FileSize(r.file) }

// View returns the file bytes [off, off+n), charging for every block
// touched that is not in the page cache. The returned slice aliases the
// store's immutable data; callers must not modify it.
//
// Each call is one reader-accounting round trip regardless of n, so
// bulk access — one View per decoded posting block rather than one per
// posting — is how cursors keep accounting overhead off the hot path;
// Stats.ViewCalls counts the round trips.
func (r *Reader) View(off, n int64) []byte {
	data := r.store.files[r.file].data
	if off < 0 || off+n > int64(len(data)) {
		panic(fmt.Sprintf("iomodel: read [%d,%d) beyond file %q size %d",
			off, off+n, r.store.files[r.file].name, len(data)))
	}
	// Counted locally and flushed on Settle: an atomic add on the shared
	// store counter here would be hammered from every worker goroutine
	// (RA probes are one View per posting) and the contended cache line
	// measurably slows RAM-resident runs.
	r.views++
	if n > 0 {
		bs := int64(r.store.cfg.BlockSize)
		first := off / bs
		last := (off + n - 1) / bs
		for b := first; b <= last; b++ {
			r.touchBlock(b)
		}
	}
	return data[off : off+n]
}

func (r *Reader) touchBlock(b int64) {
	s := r.store
	if s.Free() {
		// RAM-resident model: reads cost nothing; skip the cache
		// machinery entirely (no counters either).
		return
	}
	if b == r.lastBlock {
		return // same block as the previous touch: free, no counter
	}
	seq := b == r.lastBlock+1
	r.lastBlock = b
	if !s.touch(blockID{file: r.file, block: b}) {
		s.cacheHits.Add(1)
		return
	}
	s.blocksRead.Add(1)
	var lat time.Duration
	if seq {
		s.seqReads.Add(1)
		lat = s.cfg.SeqLatency
	} else {
		s.randReads.Add(1)
		lat = s.cfg.RandLatency
	}
	if hp := s.fault.Load(); hp != nil {
		lat += (*hp)(r.file, b)
	}
	if lat == 0 {
		return
	}
	s.simIO.Add(int64(lat))
	if r.onFetch != nil {
		r.onFetch(lat)
	}
	if s.cfg.NoSleep {
		return
	}
	r.owed += lat
	s.owedNs.Add(int64(lat))
	if r.owed >= s.cfg.SleepBatch {
		r.pay(r.owed)
		s.owedNs.Add(-int64(r.owed))
		r.owed = 0
	}
}

// Owes reports whether settling this reader involves a simulated wait
// (accrued-but-unpaid latency). Like all Reader methods it may only be
// called once the reader's owning goroutine has quiesced.
func (r *Reader) Owes() bool { return r.owed > 0 }

// Settle pays any accumulated-but-unpaid latency and flushes the
// reader's local accounting to the store counters. Cursors call it when
// a traversal ends so short reads are not silently free; the query
// execution layer also settles every reader it handed out when a query
// finishes, so early-terminating algorithms cannot abandon cursors with
// their I/O bill unpaid.
func (r *Reader) Settle() {
	if r.views > 0 {
		r.store.viewCalls.Add(r.views)
		r.views = 0
	}
	if r.owed > 0 {
		if !r.store.cfg.NoSleep {
			r.pay(r.owed)
		}
		r.store.owedNs.Add(-int64(r.owed))
	}
	r.owed = 0
}
