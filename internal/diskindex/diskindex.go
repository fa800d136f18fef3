// Package diskindex is the repository's one on-(simulated-)disk inverted
// index. Per §5.1 of the paper, "the appropriate index (either in
// document order or in score order) is pre-built offline and stored on
// disk"; per §5.2, pRA additionally needs a by-document index and sNRA
// a partition into document-id shards. One directory holds all of it.
//
// Every posting region — a term's doc-ordered list, its impact-ordered
// list, one impact-ordered sublist per shard — is stored as a sequence
// of postings.BlockSize-posting blocks, each turned into bytes by the
// block codec the manifest names (package codec). codec.Raw is the
// paper's layout, "uncompressed as a collection of binary files": §5.1
// is a configuration of this package, not a package of its own.
// codec.Group is the compressed form the reproduction checks §5's
// "decompression is marginal" claim with. Nothing below this comment
// depends on which one an index was built with.
//
// The block directory — per term: length and max score; per block: byte
// length, last doc id and block max (doc order) or entering score bound
// (impact order) — is RAM-resident, like a search engine's dictionary
// and skip data. Posting bytes are read through an iomodel.Store and
// charged. Cursors read a block at a time: one View per block, decoded
// into a buffer the cursor owns or served decoded from an optional
// plcache.Cache shared by every query over the index.
package diskindex

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/codec"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/postings"
)

// DefaultShards is the number of document-id shards pre-built for the
// shared-nothing baseline; the paper partitions into 12 (§5.2.2).
const DefaultShards = 12

// blockMeta directs one stored block. ref is what its codec decodes
// against: the doc id immediately before a doc-ordered block, the score
// bound entering an impact-ordered one.
type blockMeta struct {
	off     int64 // byte offset in the postings region
	byteLen int32
	count   int32
	ref     uint32
}

// termMeta is one term's record: its list length and max score, and
// where its nBlocks(df) doc-ordered and nBlocks(df) impact-ordered
// blocks start in the flat block tables.
type termMeta struct {
	df       int32
	max      model.Score
	docStart int32
	impStart int32
}

// shardRec directs one term × shard impact sublist: its length, its max
// score (the tight initial Bound), and where its nBlocks(n) blocks start
// in the impact block table. Term t's records are
// shardRecs[t*Shards : (t+1)*Shards].
type shardRec struct {
	n        int32
	max      model.Score
	blkStart int32
}

func nBlocks(n int32) int32 { return (n + postings.BlockSize - 1) / postings.BlockSize }

// directory is everything about an index but its posting bytes and its
// store: immutable once built or opened, so Reopen shares it.
type directory struct {
	manifest  Manifest
	terms     []termMeta
	shardRecs []shardRec
	docMeta   []blockMeta
	docDir    []postings.BlockMeta // (last, max) of docMeta[i]; what SkipTo and block-max pruning read
	impMeta   []blockMeta          // per term: the impact list's blocks, then each shard sublist's
}

// Index is an opened on-disk index whose posting reads are charged
// through an iomodel.Store. It implements postings.View and is safe for
// concurrent use (each cursor owns its reader).
type Index struct {
	*directory
	store    *iomodel.Store
	postFile int

	cache atomic.Pointer[plcache.Cache] // decoded-block cache, optional
}

var (
	_ postings.View        = (*Index)(nil)
	_ postings.BlockWalker = (*Index)(nil)
)

func newIndex(d *directory, region []byte, cfg iomodel.Config) *Index {
	x := &Index{directory: d, store: iomodel.NewStore(cfg)}
	x.postFile = x.store.AddFile(PostingsFile, region)
	return x
}

// Reopen returns another index over the same directory and posting
// bytes behind a fresh store configured by cfg, with no cache attached.
// Replica sets build or read a shard once and Reopen it per replica:
// every copy is charged independently, none pays for the build again,
// and nothing they share is ever written.
func (x *Index) Reopen(cfg iomodel.Config) *Index {
	return newIndex(x.directory, x.store.RawBytesOf(x.postFile), cfg)
}

// Store exposes the simulated storage for flushing and statistics.
func (x *Index) Store() *iomodel.Store { return x.store }

// Manifest returns the index metadata.
func (x *Index) Manifest() Manifest { return x.manifest }

// Codec returns the block codec the index was built with.
func (x *Index) Codec() codec.ID { return x.manifest.Codec }

// Shards returns the pre-built shard count.
func (x *Index) Shards() int { return x.manifest.Shards }

// SetPostingCache attaches an app-level cache of decoded posting
// blocks, shared by every cursor (and every concurrent query) over this
// index. Hits skip the charged read and the decode. A nil cache
// detaches. The cache must not be shared with another index.
func (x *Index) SetPostingCache(c *plcache.Cache) {
	if c != nil {
		c.MarkAttached()
	}
	x.cache.Store(c)
}

// PostingCache returns the attached decoded-block cache, or nil.
func (x *Index) PostingCache() *plcache.Cache { return x.cache.Load() }

// CompressedBytes returns the size of the postings region as stored —
// under codec.Raw, RawBytes.
func (x *Index) CompressedBytes() int64 { return x.store.FileSize(x.postFile) }

// RawBytes returns the size the postings region has under codec.Raw:
// every posting three times (doc order, impact order, shard sublists).
func (x *Index) RawBytes() int64 { return x.manifest.TotalPostings * codec.RawPostingBytes * 3 }

// TermCompressedBytes returns the stored byte size of term t's
// doc-ordered region (the region tooling reports per-term ratios on).
func (x *Index) TermCompressedBytes(t model.TermID) int64 {
	var n int64
	for _, b := range x.docBlocks(t) {
		n += int64(b.byteLen)
	}
	return n
}

// NumDocs implements postings.View.
func (x *Index) NumDocs() int { return x.manifest.NumDocs }

// NumTerms implements postings.View.
func (x *Index) NumTerms() int { return len(x.terms) }

// DF implements postings.View.
func (x *Index) DF(t model.TermID) int { return int(x.terms[t].df) }

// MaxScore implements postings.View.
func (x *Index) MaxScore(t model.TermID) model.Score { return x.terms[t].max }

func (x *Index) docBlocks(t model.TermID) []blockMeta {
	tm := &x.terms[t]
	return x.docMeta[tm.docStart : tm.docStart+nBlocks(tm.df)]
}

// DocBlockMeta implements postings.BlockWalker: the resident (last,
// max) directory of t's doc-ordered region, shared read-only.
func (x *Index) DocBlockMeta(t model.TermID) []postings.BlockMeta {
	if int(t) >= len(x.terms) {
		return nil
	}
	tm := &x.terms[t]
	return x.docDir[tm.docStart : tm.docStart+nBlocks(tm.df)]
}

// DocCursor implements postings.View.
func (x *Index) DocCursor(t model.TermID) postings.DocCursor {
	return x.docCursor(t, x.store.NewReader(x.postFile), nil)
}

func (x *Index) docCursor(t model.TermID, rd *iomodel.Reader, onCache func(bool)) *cursor {
	tm := &x.terms[t]
	return &cursor{
		x: x, rd: rd, cache: x.cache.Load(), onCache: onCache,
		key:    plcache.Key{Term: t, Kind: plcache.KindDoc},
		blocks: x.docBlocks(t), dir: x.DocBlockMeta(t),
		max: tm.max, n: int(tm.df), blk: -1,
	}
}

// ScoreCursor implements postings.View.
func (x *Index) ScoreCursor(t model.TermID) postings.ScoreCursor {
	return x.scoreCursor(t, x.store.NewReader(x.postFile), nil)
}

func (x *Index) scoreCursor(t model.TermID, rd *iomodel.Reader, onCache func(bool)) *cursor {
	tm := &x.terms[t]
	return &cursor{
		x: x, rd: rd, cache: x.cache.Load(), onCache: onCache,
		key:    plcache.Key{Term: t, Kind: plcache.KindImpact},
		blocks: x.impMeta[tm.impStart : tm.impStart+nBlocks(tm.df)],
		max:    tm.max, n: int(tm.df), blk: -1,
	}
}

// ScoreCursorShard implements postings.View using the pre-partitioned
// shard sublists. nShards must equal the build-time shard count (or 1
// for the unsharded list).
func (x *Index) ScoreCursorShard(t model.TermID, shard, nShards int) postings.ScoreCursor {
	return x.scoreCursorShard(t, shard, nShards, x.store.NewReader(x.postFile), nil)
}

func (x *Index) scoreCursorShard(t model.TermID, shard, nShards int, rd *iomodel.Reader, onCache func(bool)) *cursor {
	if nShards <= 1 {
		return x.scoreCursor(t, rd, onCache)
	}
	if nShards != x.Shards() {
		panic(fmt.Sprintf("diskindex: index pre-built with %d shards, requested %d", x.Shards(), nShards))
	}
	rec := x.shardRecs[int(t)*nShards+shard]
	return &cursor{
		x: x, rd: rd, cache: x.cache.Load(), onCache: onCache,
		key:    plcache.Key{Term: t, Kind: plcache.KindShard(shard)},
		blocks: x.impMeta[rec.blkStart : rec.blkStart+nBlocks(rec.n)],
		max:    rec.max, n: int(rec.n), blk: -1,
	}
}

// loadBlock is the one way stored bytes become postings: block b of the
// region key names, from the decoded-block cache when one is attached —
// concurrent misses on a block share one fetch+decode, and only the
// fill leader charges the store — otherwise one charged View decoded
// into scratch, grown if it is too small, which the caller keeps as the
// next call's scratch. filled reports that this call did the fetch. The
// result may alias a shared cache entry: read-only.
func (x *Index) loadBlock(rd *iomodel.Reader, cache *plcache.Cache, hot bool, key plcache.Key, b blockMeta, scratch []model.Posting) (post []model.Posting, filled bool) {
	if cache == nil {
		return x.decode(rd, key, b, scratch), true
	}
	// Decode into a fresh slice the cache retains — never into scratch.
	fill := func() ([]model.Posting, error) { return x.decode(rd, key, b, nil), nil }
	if hot {
		post, filled, _ = cache.GetOrFillHot(key, fill)
	} else {
		post, filled, _ = cache.GetOrFill(key, fill)
	}
	return post, filled
}

// decode is one charged View of block b plus the codec call, into out.
//
// A block that does not decode can only mean posting bytes damaged
// after OpenDir vouched for the directory; no cursor method can report
// that, so it panics, naming the block. Shard sets and live segments
// check file digests before they open an index.
func (x *Index) decode(rd *iomodel.Reader, key plcache.Key, b blockMeta, out []model.Posting) []model.Posting {
	raw := rd.View(b.off, int64(b.byteLen))
	var err error
	if key.Kind == plcache.KindDoc {
		out, err = codec.DecodeDoc(x.manifest.Codec, model.DocID(b.ref), raw, int(b.count), out)
	} else {
		out, err = codec.DecodeImpact(x.manifest.Codec, model.Score(b.ref), raw, int(b.count), out)
	}
	if err != nil {
		panic(fmt.Sprintf("diskindex: term %d kind %d block %d: %v", key.Term, key.Kind, key.Block, err))
	}
	return out
}

// cursor walks one posting region a block at a time. It is both cursor
// types of postings.View: a doc-ordered region comes with its (last,
// max) directory and answers the DocCursor methods, an impact-ordered
// one (a whole list or a shard sublist) answers Bound.
type cursor struct {
	x       *Index
	rd      *iomodel.Reader
	cache   *plcache.Cache
	onCache func(bool)
	key     plcache.Key // Block is set per load
	blocks  []blockMeta
	dir     []postings.BlockMeta // doc order only
	max     model.Score
	n       int             // postings in the region
	blk     int             // current block; -1 before start, len(blocks) when exhausted
	pos     int             // position within cur
	cur     []model.Posting // current block; may alias a shared cache entry
	scratch []model.Posting // owned decode buffer when no cache is attached
}

// load positions the cursor at the start of block i. Past the last
// block it marks the cursor exhausted and settles its reader.
func (c *cursor) load(i int) bool {
	if i >= len(c.blocks) {
		c.blk, c.cur = len(c.blocks), nil
		c.rd.Settle()
		return false
	}
	c.key.Block = int32(i)
	post, filled := c.x.loadBlock(c.rd, c.cache, false, c.key, c.blocks[i], c.scratch)
	if c.cache == nil {
		c.scratch = post
	} else if c.onCache != nil {
		c.onCache(!filled) // a waiter served by another's fill is a hit
	}
	c.cur, c.blk, c.pos = post, i, 0
	return true
}

func (c *cursor) Next() bool {
	if c.blk >= 0 && c.pos+1 < len(c.cur) {
		c.pos++
		return true
	}
	if c.blk >= len(c.blocks) {
		return false // already exhausted
	}
	return c.load(c.blk + 1)
}

func (c *cursor) SkipTo(d model.DocID) bool {
	if c.blk >= len(c.blocks) {
		return false
	}
	if c.blk >= 0 && c.cur[c.pos].Doc >= d {
		return true // never moves backwards
	}
	// The target block comes from the RAM-resident directory — a move
	// over skip data, no posting bytes touched.
	tgt := postings.BlockAtMeta(c.dir, d)
	if tgt < c.blk {
		tgt = c.blk
	}
	if tgt != c.blk && !c.load(tgt) {
		return false
	}
	for c.pos < len(c.cur) && c.cur[c.pos].Doc < d {
		c.pos++
	}
	if c.pos >= len(c.cur) {
		// d lies past this block's postings (possible only when the
		// cursor was already inside the target block): spill forward.
		return c.load(c.blk + 1)
	}
	return true
}

func (c *cursor) Doc() model.DocID       { return c.cur[c.pos].Doc }
func (c *cursor) Score() model.Score     { return c.cur[c.pos].Score }
func (c *cursor) Len() int               { return c.n }
func (c *cursor) MaxScore() model.Score  { return c.max }
func (c *cursor) BlockMax() model.Score  { return c.dir[c.blk].Max }
func (c *cursor) BlockLast() model.DocID { return c.dir[c.blk].Last }

func (c *cursor) BlockMaxAt(d model.DocID) model.Score {
	return postings.BlockMaxAtMeta(c.dir, d)
}

func (c *cursor) BlockLastAt(d model.DocID) model.DocID {
	return postings.BlockLastAtMeta(c.dir, d)
}

// Bound implements postings.ScoreCursor.
func (c *cursor) Bound() model.Score {
	if c.blk < 0 {
		return c.max
	}
	if c.blk >= len(c.blocks) {
		return 0
	}
	return c.cur[c.pos].Score
}

// RandomAccess implements postings.View. The RA family's secondary
// by-document index (§3.2 — the structure that "doubles the footprint")
// is the doc-ordered region itself: a lookup is a search of the
// resident directory for the one block that can hold d, then one
// charged read of that block — a random read, which is the cost the
// paper attributes to pRA — and a scan of its postings. The cost is
// the same whichever codec built the index (DESIGN.md §4a).
func (x *Index) RandomAccess(t model.TermID, d model.DocID) (model.Score, bool) {
	return x.randomAccess(t, d, x.store.NewReader(x.postFile))
}

// randomAccess probes through rd, which it settles before returning so
// a lookup interrupted by cancellation still pays its charge at once.
// A cached block is used but a miss does not fill the cache: a point
// lookup is no evidence the block will be read again. The reader and
// the decode buffer stay on the caller's stack; the RA family
// allocates nothing per lookup.
func (x *Index) randomAccess(t model.TermID, d model.DocID, rd *iomodel.Reader) (model.Score, bool) {
	dir := x.DocBlockMeta(t)
	i := postings.BlockAtMeta(dir, d)
	if i >= len(dir) {
		return 0, false
	}
	key := plcache.Key{Term: t, Kind: plcache.KindDoc, Block: int32(i)}
	var (
		post []model.Posting
		ok   bool
		buf  [postings.BlockSize]model.Posting
	)
	if cache := x.cache.Load(); cache != nil {
		post, ok = cache.Get(key)
	}
	if !ok {
		post = x.decode(rd, key, x.docBlocks(t)[i], buf[:0])
		rd.Settle()
	}
	for _, p := range post {
		if p.Doc == d {
			return p.Score, true
		}
		if p.Doc > d {
			break
		}
	}
	return 0, false
}

// Resident implements postings.View: a lookup costs CPU only on a store
// that charges nothing (RAMConfig), whose blocks are all in memory. On a
// store that charges, no block is resident, not even one the page cache
// or the decoded-block cache holds: priced as resident, such lookups
// made the switch fire sooner on the sharded store, which then read
// fewer postings for more decoded-block cache fills and lost queries per
// second (DESIGN deviation 12).
func (x *Index) Resident(model.TermID, model.DocID) bool { return x.store.Free() }

// BindExec implements postings.View: the returned view opens cursors
// whose simulated I/O waits end early once ctx is done, whose physical
// fetches are reported to onIO, and whose posting-cache lookups are
// reported to onCache. It shares the index, page cache and posting
// cache with the receiver, and tracks every reader it hands out so the
// execution layer can pay any outstanding I/O charges when the query
// finishes (settleAll).
func (x *Index) BindExec(ctx context.Context, onIO func(time.Duration), onStop func(), onCache func(hit bool)) (postings.View, func()) {
	v := &execView{Index: x, ctx: ctx, onIO: onIO, onStop: onStop, onCache: onCache}
	return v, v.settleAll
}

// execView is a per-query binding of an Index to an execution context.
type execView struct {
	*Index
	ctx     context.Context
	onIO    func(time.Duration)
	onStop  func()
	onCache func(bool)

	mu      sync.Mutex
	readers []*iomodel.Reader
}

// newReader opens a bound reader and records it for settlement when the
// query finishes.
func (v *execView) newReader() *iomodel.Reader {
	rd := v.store.NewReader(v.postFile)
	rd.Bind(v.ctx, v.onIO, v.onStop)
	v.mu.Lock()
	v.readers = append(v.readers, rd)
	v.mu.Unlock()
	return rd
}

// settleAll is the bound view's settle func: it pays the
// accrued-but-unpaid simulated latency of every reader this view handed
// out. Callers must ensure the query's workers have quiesced first.
//
// Readers settle concurrently: each owed tail is a wait its owning
// worker would have performed in parallel with the others, so the
// settlement wall-clock is the max outstanding charge, not the sum —
// settling hundreds of readers serially would also multiply the
// sleep-granularity floor of each micro-payment into real milliseconds.
func (v *execView) settleAll() {
	v.mu.Lock()
	readers := v.readers
	v.mu.Unlock()
	var wg sync.WaitGroup
	for _, rd := range readers {
		if !rd.Owes() {
			rd.Settle() // no wait involved: just flushes accounting
			continue
		}
		wg.Add(1)
		go func(rd *iomodel.Reader) {
			defer wg.Done()
			rd.Settle()
		}(rd)
	}
	wg.Wait()
}

func (v *execView) DocCursor(t model.TermID) postings.DocCursor {
	return v.Index.docCursor(t, v.newReader(), v.onCache)
}

func (v *execView) ScoreCursor(t model.TermID) postings.ScoreCursor {
	return v.Index.scoreCursor(t, v.newReader(), v.onCache)
}

func (v *execView) ScoreCursorShard(t model.TermID, shard, nShards int) postings.ScoreCursor {
	return v.Index.scoreCursorShard(t, shard, nShards, v.newReader(), v.onCache)
}

// RandomAccess probes through an untracked reader that is constructed
// inline and settled by randomAccess before returning — constructed
// here rather than in a helper so it never escapes to the heap.
func (v *execView) RandomAccess(t model.TermID, d model.DocID) (model.Score, bool) {
	rd := v.store.NewReader(v.postFile)
	rd.Bind(v.ctx, v.onIO, v.onStop)
	return v.Index.randomAccess(t, d, rd)
}

// WalkDocBlocks implements postings.BlockWalker: one reader walks t's
// doc-ordered region block-at-a-time, serving each block to sink from
// the decoded-block cache when possible (single-flight, hot or cold
// admission per the hot flag) and charging one bulk View per miss. The
// reader is settled before returning, so a walk can never leave I/O
// debt outstanding regardless of how early sink stops it.
func (x *Index) WalkDocBlocks(ctx context.Context, t model.TermID, hot bool, sink func(block int, post []model.Posting) bool) (blocks, fills int) {
	if int(t) >= len(x.terms) {
		return 0, 0
	}
	rd := x.store.NewReader(x.postFile)
	rd.Bind(ctx, nil, nil)
	defer rd.Settle()
	cache := x.cache.Load()
	key := plcache.Key{Term: t, Kind: plcache.KindDoc}
	var scratch []model.Posting
	for i, b := range x.docBlocks(t) {
		if ctx.Err() != nil {
			break
		}
		key.Block = int32(i)
		post, filled := x.loadBlock(rd, cache, hot, key, b, scratch)
		if cache == nil {
			scratch = post
		}
		if filled {
			fills++
		}
		blocks++
		if !sink(i, post) {
			break
		}
	}
	return blocks, fills
}
