// Package postings defines the iterator abstractions every retrieval
// algorithm in this repository traverses, plus slice-backed
// implementations used by the in-memory index. The on-disk index
// (package diskindex) provides alternative implementations that charge
// simulated I/O; algorithms are written against the interfaces and run
// unchanged over either.
//
// Two traversal orders exist, mirroring the paper's taxonomy (§3.1):
//
//   - DocCursor walks a posting list in increasing document-id order
//     and supports skipping, which document-order algorithms (MaxScore,
//     WAND, BMW) require. It also exposes block-level maxima (block
//     size 64, as selected in §5.2.1) for Block-Max WAND pruning.
//
//   - ScoreCursor walks a posting list in decreasing term-score
//     ("impact") order, which score-order algorithms (TA/NRA/Sparta,
//     JASS) require, and exposes an upper bound on the scores of
//     not-yet-returned postings — the UB[i] of the Threshold Algorithm.
package postings

import (
	"context"
	"time"

	"sparta/internal/model"
)

// BlockSize is the number of postings per block-max block. The paper
// experimented with multiple sizes and selected 64 (§5.2.1).
const BlockSize = 64

// DocCursor iterates a posting list in document-id order.
//
// A cursor starts positioned before the first posting; Next or SkipTo
// must return true before Doc/Score/BlockMax/BlockLast are valid.
type DocCursor interface {
	// Next advances to the next posting, returning false at the end.
	Next() bool
	// SkipTo advances to the first posting with Doc() >= d (possibly
	// not moving if already there), returning false if no such posting
	// exists. It never moves backwards.
	SkipTo(d model.DocID) bool
	// Doc returns the current document id.
	Doc() model.DocID
	// Score returns the current term score.
	Score() model.Score
	// MaxScore returns the largest term score anywhere in the list —
	// the term upper bound used by MaxScore/WAND.
	MaxScore() model.Score
	// BlockMax returns the largest term score within the current block.
	BlockMax() model.Score
	// BlockLast returns the last document id of the current block;
	// SkipTo(BlockLast()+1) leaves the block.
	BlockLast() model.DocID
	// BlockMaxAt returns the largest term score in the block that
	// contains the first posting with doc >= d, or 0 if no such block.
	// This is BMW's "shallow move": it inspects block metadata (RAM
	// resident, like real skip data) without moving the cursor or
	// touching posting storage.
	BlockMaxAt(d model.DocID) model.Score
	// BlockLastAt returns the last document id of the block that
	// contains the first posting with doc >= d, or the maximum DocID if
	// no such block. Used to compute BMW's next candidate document.
	BlockLastAt(d model.DocID) model.DocID
	// Len returns the posting-list length.
	Len() int
}

// BlockAtMeta finds the index of the block containing the first posting
// with doc >= d: the first block whose Last >= d. Returns len(blocks)
// if none. Block-granular cursors use it to turn SkipTo into a RAM
// metadata search plus a single block decode.
func BlockAtMeta(blocks []BlockMeta, d model.DocID) int { return blockAt(blocks, d) }

// blockAt finds the index of the block containing the first posting
// with doc >= d: the first block whose Last >= d. Returns len(blocks)
// if none.
func blockAt(blocks []BlockMeta, d model.DocID) int {
	lo, hi := 0, len(blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if blocks[mid].Last < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BlockMaxAtMeta implements BlockMaxAt over a metadata slice.
func BlockMaxAtMeta(blocks []BlockMeta, d model.DocID) model.Score {
	if i := blockAt(blocks, d); i < len(blocks) {
		return blocks[i].Max
	}
	return 0
}

// BlockLastAtMeta implements BlockLastAt over a metadata slice.
func BlockLastAtMeta(blocks []BlockMeta, d model.DocID) model.DocID {
	if i := blockAt(blocks, d); i < len(blocks) {
		return blocks[i].Last
	}
	return model.DocID(^uint32(0))
}

// ScoreCursor iterates a posting list in decreasing score order.
type ScoreCursor interface {
	// Next advances to the next posting, returning false at the end.
	Next() bool
	// Doc returns the current document id.
	Doc() model.DocID
	// Score returns the current term score.
	Score() model.Score
	// Bound returns an upper bound on every not-yet-returned posting's
	// score: the term's max score before the first Next, then the
	// current score (lists are non-increasing).
	Bound() model.Score
	// Len returns the number of postings this cursor will yield.
	Len() int
}

// View is the read interface of an index: everything a retrieval
// algorithm needs, independent of whether postings live in memory or
// on (simulated) disk.
type View interface {
	// NumDocs returns the corpus size.
	NumDocs() int
	// NumTerms returns the dictionary size.
	NumTerms() int
	// DF returns the document frequency (posting-list length) of t.
	DF(t model.TermID) int
	// MaxScore returns the highest term score of t.
	MaxScore(t model.TermID) model.Score
	// DocCursor opens a document-order traversal of t's posting list.
	DocCursor(t model.TermID) DocCursor
	// ScoreCursor opens a score-order traversal of t's posting list.
	ScoreCursor(t model.TermID) ScoreCursor
	// ScoreCursorShard opens a score-order traversal restricted to the
	// shard-th of nShards equal document-id ranges; the shared-nothing
	// sNRA baseline runs one NRA instance per shard (§5.2.2).
	ScoreCursorShard(t model.TermID, shard, nShards int) ScoreCursor
	// RandomAccess returns t's score for document d, using the
	// secondary by-document index that the RA family requires (§3.2).
	// The bool reports whether d appears in t's posting list.
	RandomAccess(t model.TermID, d model.DocID) (model.Score, bool)
	// Resident reports whether a lookup of d in t's doc-ordered list —
	// RandomAccess, or a DocCursor's SkipTo — would find the block that
	// can hold d in memory, so that it costs CPU only. It is a probe, not
	// a read: it charges nothing and moves no cache order or counter, so
	// an algorithm can price a lookup before making it. A view whose
	// postings are in memory answers true; one over a store that charges
	// for reads answers false.
	Resident(t model.TermID, d model.DocID) bool
	// BindExec binds the view to one query's execution. The cursors of
	// the returned view end their simulated I/O waits early once ctx is
	// done — an I/O fetch is the natural cancellation point of a
	// disk-resident query — and report every physical block fetch's
	// charged latency to onIO; onStop is invoked the first time a wait
	// is cut short, on the goroutine that observed it; onCache receives
	// the outcome of every posting-cache lookup. Any callback may be nil.
	// settle, when not nil, pays every reader's accrued but unpaid
	// simulated latency: the execution layer calls it once the query's
	// workers have quiesced, so an algorithm that stops early cannot
	// abandon cursors with their bill outstanding. A view that charges
	// nothing returns itself and a nil settle; a view that wraps another
	// binds through it.
	BindExec(ctx context.Context, onIO func(time.Duration), onStop func(), onCache func(hit bool)) (bound View, settle func())
}

// BlockWalker is a block-at-a-time traversal of a term's doc-ordered
// postings: one walk hands each decoded block to a sink, where a
// DocCursor yields one posting per call. Disk-resident views implement
// it next to their cursors (it prices the decode-and-walk floor of the
// on-disk store); in-memory views don't.
type BlockWalker interface {
	// DocBlockMeta returns the RAM-resident block directory (last doc id
	// and quantized max score per block) of t's doc-ordered posting
	// region — the same skip data DocCursor pruning reads. The slice is
	// shared read-only state (the on-disk index hands out subslices of
	// a directory built once at open) and must not be mutated.
	DocBlockMeta(t model.TermID) []BlockMeta
	// WalkDocBlocks traverses t's doc-ordered posting blocks in order,
	// invoking sink once per block with the block index and the decoded
	// postings. The posting slice is valid only during the sink call —
	// it may alias a shared cache entry or a reused scratch buffer —
	// and must not be retained or mutated. sink returns false to stop
	// the traversal early. hot selects hot cache admission for fills
	// (plcache GetOrFillHot): a filled block is admitted on its first
	// touch instead of passing the two-touch filter, for a caller that
	// knows the block will be read again soon. The walk stops early when
	// ctx is done; every charged reader it opens is settled before it
	// returns. It reports the blocks visited and the fills (block
	// fetch+decodes) it performed itself — blocks served from the
	// decoded-block cache or an in-flight fill are visited, not filled.
	WalkDocBlocks(ctx context.Context, t model.TermID, hot bool, sink func(block int, post []model.Posting) bool) (blocks, fills int)
}

// ShardRange returns the half-open document-id range [lo, hi) of shard
// number `shard` out of nShards over a corpus of numDocs documents.
// Ranges are contiguous and of near-equal size, partitioning the id
// space the way sNRA's build-time partitioning does.
func ShardRange(numDocs, shard, nShards int) (lo, hi model.DocID) {
	lo = model.DocID(shard * numDocs / nShards)
	hi = model.DocID((shard + 1) * numDocs / nShards)
	return
}

// SliceDocCursor is a DocCursor over an in-memory posting slice sorted
// by document id, with block-max metadata computed at construction.
type SliceDocCursor struct {
	post   []model.Posting
	blocks []BlockMeta
	pos    int // index of current posting; -1 before start
	max    model.Score
}

// BlockMeta summarizes one block of BlockSize postings.
type BlockMeta struct {
	Last model.DocID // last document id in the block
	Max  model.Score // largest term score in the block
}

// BuildBlocks computes block-max metadata for a doc-ordered list.
func BuildBlocks(post []model.Posting) []BlockMeta {
	n := (len(post) + BlockSize - 1) / BlockSize
	blocks := make([]BlockMeta, n)
	for b := 0; b < n; b++ {
		start := b * BlockSize
		end := start + BlockSize
		if end > len(post) {
			end = len(post)
		}
		meta := BlockMeta{Last: post[end-1].Doc}
		for _, p := range post[start:end] {
			if p.Score > meta.Max {
				meta.Max = p.Score
			}
		}
		blocks[b] = meta
	}
	return blocks
}

// NewSliceDocCursor wraps a doc-ordered posting slice. blocks may be
// nil, in which case metadata is computed on the fly; max is the term's
// maximum score (pass 0 to compute it).
func NewSliceDocCursor(post []model.Posting, blocks []BlockMeta, max model.Score) *SliceDocCursor {
	if blocks == nil {
		blocks = BuildBlocks(post)
	}
	if max == 0 {
		for _, b := range blocks {
			if b.Max > max {
				max = b.Max
			}
		}
	}
	return &SliceDocCursor{post: post, blocks: blocks, pos: -1, max: max}
}

// Next implements DocCursor.
func (c *SliceDocCursor) Next() bool {
	c.pos++
	return c.pos < len(c.post)
}

// SkipTo implements DocCursor via galloping + binary search, touching
// O(log distance) postings like a skip-list index would.
func (c *SliceDocCursor) SkipTo(d model.DocID) bool {
	if c.pos >= len(c.post) || len(c.post) == 0 {
		return false
	}
	i := c.pos
	if i < 0 {
		i = 0
	}
	if c.post[i].Doc >= d {
		c.pos = i
		return true
	}
	// Gallop to bracket the target, then binary search.
	step := 1
	hi := i
	for hi < len(c.post) && c.post[hi].Doc < d {
		i = hi
		hi += step
		step *= 2
	}
	if hi > len(c.post) {
		hi = len(c.post)
	}
	lo := i
	for lo < hi {
		mid := (lo + hi) / 2
		if c.post[mid].Doc < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.pos = lo
	return c.pos < len(c.post)
}

// Doc implements DocCursor.
func (c *SliceDocCursor) Doc() model.DocID { return c.post[c.pos].Doc }

// Score implements DocCursor.
func (c *SliceDocCursor) Score() model.Score { return c.post[c.pos].Score }

// MaxScore implements DocCursor.
func (c *SliceDocCursor) MaxScore() model.Score { return c.max }

// BlockMax implements DocCursor.
func (c *SliceDocCursor) BlockMax() model.Score { return c.blocks[c.pos/BlockSize].Max }

// BlockLast implements DocCursor.
func (c *SliceDocCursor) BlockLast() model.DocID { return c.blocks[c.pos/BlockSize].Last }

// BlockMaxAt implements DocCursor.
func (c *SliceDocCursor) BlockMaxAt(d model.DocID) model.Score {
	return BlockMaxAtMeta(c.blocks, d)
}

// BlockLastAt implements DocCursor.
func (c *SliceDocCursor) BlockLastAt(d model.DocID) model.DocID {
	return BlockLastAtMeta(c.blocks, d)
}

// Len implements DocCursor.
func (c *SliceDocCursor) Len() int { return len(c.post) }

// SliceScoreCursor is a ScoreCursor over an in-memory posting slice
// sorted by decreasing score.
type SliceScoreCursor struct {
	post []model.Posting
	pos  int
	max  model.Score
}

// NewSliceScoreCursor wraps a score-ordered posting slice; max is the
// term's maximum score (pass 0 to derive it from the first posting).
func NewSliceScoreCursor(post []model.Posting, max model.Score) *SliceScoreCursor {
	if max == 0 && len(post) > 0 {
		max = post[0].Score
	}
	return &SliceScoreCursor{post: post, pos: -1, max: max}
}

// Next implements ScoreCursor.
func (c *SliceScoreCursor) Next() bool {
	c.pos++
	return c.pos < len(c.post)
}

// Doc implements ScoreCursor.
func (c *SliceScoreCursor) Doc() model.DocID { return c.post[c.pos].Doc }

// Score implements ScoreCursor.
func (c *SliceScoreCursor) Score() model.Score { return c.post[c.pos].Score }

// Bound implements ScoreCursor.
func (c *SliceScoreCursor) Bound() model.Score {
	if c.pos < 0 {
		return c.max
	}
	if c.pos >= len(c.post) {
		return 0
	}
	return c.post[c.pos].Score
}

// Len implements ScoreCursor.
func (c *SliceScoreCursor) Len() int { return len(c.post) }
