// Package liveindex is the segment-based mutable index: a WAL-backed
// in-memory memtable segment fed by an append batcher, flushed into
// immutable on-disk segments in the block-decoded diskindex format,
// with a background compactor merging small segments while queries
// serve.
//
// The package's contract is byte-identity: at every lifecycle point —
// mid-memtable, straight after a flush, during and after a compaction
// — every exact retrieval algorithm returns results identical to a
// fresh single-index build of the same documents (see score.go for the
// scoring argument and Live.SearchContext for the per-segment merge).
// Queries run against immutable epoch snapshots (epoch.go) published
// with an atomic pointer swap; in-flight queries finish on the epoch
// they started with.
package liveindex

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/core"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/merkle"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

const (
	// ManifestFile is the live index's segment manifest.
	ManifestFile = "live.json"
	// DictFile is the persisted term dictionary.
	DictFile = "dict.json"
	// WALFile is the memtable's write-ahead log.
	WALFile = "wal.log"

	// manifestVersion is the one live manifest this build reads and
	// writes: per-file SHA-256 digests plus a per-segment Merkle root,
	// verified before a segment is served, over segments in
	// diskindex.FormatVersion with a group-coded seglens sidecar.
	// Version 4 listed segments in diskindex format 4, versions 1–3 in
	// the retired three-file layout.
	manifestVersion = 5

	// maxBatch caps how many queued appends commit under one WAL sync.
	maxBatch = 64
)

// Config parameterizes a live index. The zero value serves.
type Config struct {
	// IO configures the simulated store of each frozen segment; nil
	// uses iomodel.DefaultConfig.
	IO *iomodel.Config
	// Factory builds the per-segment algorithm instance Search uses;
	// nil uses the Sparta core.
	Factory func(view postings.View) topk.Algorithm
	// FlushDocs freezes the memtable into an on-disk segment once it
	// holds this many documents (default 4096).
	FlushDocs int
	// CompactSegments triggers background compaction once this many
	// frozen segments exist (default 4).
	CompactSegments int
	// CompactMaxDocs caps the merged size of one compaction (default
	// 4×FlushDocs).
	CompactMaxDocs int
	// DisableCompaction turns the background compactor off; Compact()
	// still works when called explicitly.
	DisableCompaction bool
}

func (c Config) withDefaults() Config {
	if c.IO == nil {
		def := iomodel.DefaultConfig()
		c.IO = &def
	}
	if c.Factory == nil {
		c.Factory = func(v postings.View) topk.Algorithm { return core.New(v) }
	}
	if c.FlushDocs <= 0 {
		c.FlushDocs = 4096
	}
	if c.CompactSegments <= 0 {
		c.CompactSegments = 4
	}
	if c.CompactMaxDocs <= 0 {
		c.CompactMaxDocs = 4 * c.FlushDocs
	}
	return c
}

// manifest is the on-disk segment listing (live.json), written with a
// tmp-file rename. The write order — segment directory, manifest, WAL
// truncate — makes every crash window recoverable (see wal.go).
type manifest struct {
	Version  int           `json:"version"`
	NextGen  int           `json:"next_gen"`
	WALStart model.DocID   `json:"wal_start"`
	Segments []segManifest `json:"segments"`
}

type segManifest struct {
	Dir  string      `json:"dir"`
	Gen  int         `json:"gen"`
	Lo   model.DocID `json:"lo"`
	Hi   model.DocID `json:"hi"`
	Docs int         `json:"docs"`
	// Files are the segment's index files with flush-time SHA-256
	// digests; MerkleRoot folds them into one provable identity.
	Files      []merkle.FileDigest `json:"files"`
	MerkleRoot string              `json:"merkle_root"`
}

// readManifest parses live.json. A manifest written by an older build
// is a *diskindex.RebuildError; one that lists a segment without digests is
// refused — absence of digests must read as "unverifiable", not "valid".
func readManifest(dir string) (manifest, error) {
	var man manifest
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return man, fmt.Errorf("liveindex: %w", err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, fmt.Errorf("liveindex: parsing %s: %w", ManifestFile, err)
	}
	if man.Version != manifestVersion {
		return man, &diskindex.RebuildError{Dir: dir,
			Reason: fmt.Sprintf("live manifest version %d, this build reads %d", man.Version, manifestVersion)}
	}
	for _, sm := range man.Segments {
		if len(sm.Files) == 0 {
			return man, fmt.Errorf("liveindex: segment %s: manifest carries no digests", sm.Dir)
		}
	}
	return man, nil
}

// VerifyDir recomputes every frozen segment's file digests and Merkle
// root against the live.json manifest without opening the index, and
// reports every disagreement (cmd/indexstat -verify).
func VerifyDir(dir string) error {
	man, err := readManifest(dir)
	if err != nil {
		return err
	}
	var errs []error
	for _, sm := range man.Segments {
		if err := merkle.VerifyDir(filepath.Join(dir, sm.Dir), sm.Files, sm.MerkleRoot); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// appendReq is one document waiting for the ingest batcher.
type appendReq struct {
	tokens []string           // AppendTokens form
	bag    []corpus.TermCount // AppendBag form
	doc    model.DocID        // assigned at commit
	err    error
	done   chan struct{}
}

// Live is the mutable segment-based index. It is a topk.Algorithm: a
// query runs Config.Factory's algorithm on every segment of the
// current epoch and merges the parts, so it drops into every place an
// algorithm does — a Searcher, the benchmark's query clients.
type Live struct {
	dir string
	cfg Config

	// mu guards the mutable core: dictionary, memtable, frozen list,
	// WAL handle and epoch publication.
	mu       sync.Mutex
	dict     map[string]model.TermID
	names    []string
	mem      *memtable
	frozen   []*frozenSeg
	frozenDF []int32 // per term, the frozen segments' df sum (sumFrozenDFLocked)
	w        *wal
	nextGen  int
	walStart model.DocID

	cur atomic.Pointer[epoch]

	// stores lists the simulated store of every frozen segment ever
	// opened (including ones compaction replaced): settlement is a
	// global invariant, not a current-epoch one.
	storesMu sync.Mutex
	stores   []*iomodel.Store

	// appendMu guards reqs against Close (RLock to send, Lock to close).
	appendMu sync.RWMutex
	closed   bool
	reqs     chan *appendReq

	ingesterDone chan struct{}

	compactKick   chan struct{}
	compactDone   chan struct{}
	compactCancel context.CancelFunc

	// compactMu serializes compactions: explicit Compact() calls can
	// race the background compactor, and two merges picking overlapping
	// runs would both try to remove the same segments. Held for the
	// whole pick-merge-splice span, never while holding mu.
	compactMu sync.Mutex

	// Lifecycle counters (metrics.go surfaces them).
	appendedDocs      atomic.Int64
	flushes           atomic.Int64
	compactions       atomic.Int64
	compactInFlight   atomic.Int64
	lastFlushUnixNano atomic.Int64
}

// Open opens (or creates) a live index rooted at dir, replaying the
// WAL into a fresh memtable and publishing the recovered epoch.
func Open(dir string, cfg Config) (*Live, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("liveindex: %w", err)
	}
	l := &Live{
		dir:          dir,
		cfg:          cfg,
		dict:         make(map[string]model.TermID),
		reqs:         make(chan *appendReq, maxBatch),
		ingesterDone: make(chan struct{}),
		compactKick:  make(chan struct{}, 1),
		compactDone:  make(chan struct{}),
	}

	man, err := readManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		man, err = manifest{NextGen: 1}, nil
	}
	if err != nil {
		return nil, err
	}
	l.nextGen = man.NextGen
	l.walStart = man.WALStart

	if rawDict, err := os.ReadFile(filepath.Join(dir, DictFile)); err == nil {
		if err := json.Unmarshal(rawDict, &l.names); err != nil {
			return nil, fmt.Errorf("liveindex: parsing %s: %w", DictFile, err)
		}
		for i, name := range l.names {
			l.dict[name] = model.TermID(i)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("liveindex: %w", err)
	}

	// Open manifest segments; remove stray segment directories (a crash
	// between segment write and manifest update leaves one behind).
	known := make(map[string]bool, len(man.Segments))
	for _, sm := range man.Segments {
		known[sm.Dir] = true
		segDir := filepath.Join(dir, sm.Dir)
		// Verify before trusting: a segment whose bytes disagree with
		// its flush-time digests fails the open rather than serving
		// corrupted postings.
		if err := merkle.VerifyDir(segDir, sm.Files, sm.MerkleRoot); err != nil {
			return nil, fmt.Errorf("liveindex: segment %s failed verification: %w", sm.Dir, err)
		}
		fz, err := openFrozen(segDir, sm.Gen, sm.Lo, sm.Hi, *cfg.IO)
		if err != nil {
			return nil, err
		}
		fz.files, fz.root = sm.Files, sm.MerkleRoot
		l.frozen = append(l.frozen, fz)
		l.trackStore(fz.inner.Store())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("liveindex: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && !known[e.Name()] {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("liveindex: removing stray segment: %w", err)
			}
		}
	}

	// Replay the WAL into a fresh memtable. Term records may duplicate
	// dictionary entries persisted at the last flush, and document
	// records below WALStart belong to an already-flushed segment
	// (crash between manifest update and WAL truncate) — both skip.
	l.mem = newMemtable(l.walStart)
	recs, walEnd, err := replayWAL(filepath.Join(dir, WALFile))
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		switch r.kind {
		case walTerm:
			if int(r.term) < len(l.names) {
				continue
			}
			if int(r.term) != len(l.names) {
				return nil, fmt.Errorf("liveindex: wal term %d out of order (dict has %d)", r.term, len(l.names))
			}
			l.names = append(l.names, r.name)
			l.dict[r.name] = r.term
		case walDoc:
			if r.doc < l.walStart {
				continue
			}
			if want := l.mem.lo + model.DocID(l.mem.docs()); r.doc != want {
				return nil, fmt.Errorf("liveindex: wal doc %d out of order (want %d)", r.doc, want)
			}
			l.mem.appendDoc(r.doc, r.bag)
		}
	}

	// Open the log at the intact-prefix offset: openWAL truncates any
	// torn tail so new appends never land after garbage bytes that
	// would wall off their replay.
	l.w, err = openWAL(filepath.Join(dir, WALFile), walEnd)
	if err != nil {
		return nil, err
	}

	l.mu.Lock()
	l.sumFrozenDFLocked()
	l.publishLocked()
	l.mu.Unlock()

	go l.ingester()
	ctx, cancel := context.WithCancel(context.Background())
	l.compactCancel = cancel
	go l.compactor(ctx)
	return l, nil
}

func (l *Live) trackStore(s *iomodel.Store) {
	l.storesMu.Lock()
	l.stores = append(l.stores, s)
	l.storesMu.Unlock()
}

// Unsettled sums the unpaid simulated-I/O latency across every
// segment store this index has ever opened — the settlement invariant
// must hold even for segments compaction has since replaced.
func (l *Live) Unsettled() time.Duration {
	l.storesMu.Lock()
	defer l.storesMu.Unlock()
	var total time.Duration
	for _, s := range l.stores {
		total += s.Unsettled()
	}
	return total
}

// AppendTokens indexes one document given as a token stream. It
// returns once the document is WAL-durable and visible to queries.
// Live documents carry a neutral quality prior (see score.go).
func (l *Live) AppendTokens(tokens []string) (model.DocID, error) {
	return l.submit(&appendReq{tokens: tokens, done: make(chan struct{})})
}

// AppendBag indexes one document given as a bag of term ids, growing
// the dictionary with synthetic names for unseen ids (mirroring the
// builder's AddBag). Terms must not repeat within the bag.
func (l *Live) AppendBag(bag []corpus.TermCount) (model.DocID, error) {
	cp := make([]corpus.TermCount, len(bag))
	copy(cp, bag)
	return l.submit(&appendReq{bag: cp, done: make(chan struct{})})
}

func (l *Live) submit(r *appendReq) (model.DocID, error) {
	l.appendMu.RLock()
	if l.closed {
		l.appendMu.RUnlock()
		return 0, fmt.Errorf("liveindex: index closed")
	}
	l.reqs <- r
	l.appendMu.RUnlock()
	<-r.done
	return r.doc, r.err
}

// ingester is the single goroutine that commits appends: it drains
// waiting requests into a batch, stages dictionary growth, makes the
// batch WAL-durable with one sync, applies it to the memtable, flushes
// if the memtable is full, publishes the new epoch, and only then
// acknowledges — an acked append is both searchable and crash-durable.
func (l *Live) ingester() {
	defer close(l.ingesterDone)
	for first := range l.reqs {
		batch := []*appendReq{first}
		for len(batch) < maxBatch {
			select {
			case r, ok := <-l.reqs:
				if !ok {
					l.commit(batch)
					return
				}
				batch = append(batch, r)
			default:
				goto full
			}
		}
	full:
		l.commit(batch)
	}
}

func (l *Live) commit(batch []*appendReq) {
	l.mu.Lock()
	dictLen0 := len(l.names)

	// Stage: resolve every request to a bag of term ids against the
	// (possibly growing) dictionary and assign document ids.
	type staged struct {
		req *appendReq
		bag []corpus.TermCount
	}
	stagedReqs := make([]staged, 0, len(batch))
	next := l.mem.lo + model.DocID(l.mem.docs())
	for _, r := range batch {
		var bag []corpus.TermCount
		if r.tokens != nil {
			bag = l.bagOfTokensLocked(r.tokens)
		} else {
			l.growDictLocked(r.bag)
			bag = r.bag
		}
		r.doc = next
		next++
		stagedReqs = append(stagedReqs, staged{req: r, bag: bag})
	}

	// WAL: new terms first, then documents, one sync for the batch.
	err := func() error {
		for t := dictLen0; t < len(l.names); t++ {
			if err := l.w.appendTerm(model.TermID(t), l.names[t]); err != nil {
				return err
			}
		}
		for _, s := range stagedReqs {
			if err := l.w.appendDoc(s.req.doc, s.bag); err != nil {
				return err
			}
		}
		return l.w.Sync()
	}()
	if err != nil {
		// Roll the staged dictionary growth back; nothing was applied.
		for t := dictLen0; t < len(l.names); t++ {
			delete(l.dict, l.names[t])
		}
		l.names = l.names[:dictLen0]
		l.mu.Unlock()
		for _, r := range batch {
			r.err = err
			close(r.done)
		}
		return
	}

	for _, s := range stagedReqs {
		l.mem.appendDoc(s.req.doc, s.bag)
	}
	l.appendedDocs.Add(int64(len(batch)))

	var flushErr error
	if l.mem.docs() >= l.cfg.FlushDocs {
		flushErr = l.flushLocked()
	}
	l.publishLocked()
	kick := len(l.frozen) >= l.cfg.CompactSegments
	l.mu.Unlock()

	for _, r := range batch {
		// A flush failure does not invalidate the committed appends
		// (they are WAL-durable and searchable); it surfaces on the
		// appends that triggered it so callers see the disk problem.
		r.err = flushErr
		close(r.done)
	}
	if kick && !l.cfg.DisableCompaction {
		select {
		case l.compactKick <- struct{}{}:
		default:
		}
	}
}

// bagOfTokensLocked resolves a token stream to a sorted bag,
// mirroring the builder's AddTokens: unique names sorted before id
// assignment, so ingest order inside a document never changes ids.
func (l *Live) bagOfTokensLocked(tokens []string) []corpus.TermCount {
	counts := make(map[string]uint32, len(tokens))
	for _, tok := range tokens {
		counts[tok]++
	}
	namesNew := make([]string, 0, len(counts))
	for name := range counts {
		if _, ok := l.dict[name]; !ok {
			namesNew = append(namesNew, name)
		}
	}
	sort.Strings(namesNew)
	for _, name := range namesNew {
		l.dict[name] = model.TermID(len(l.names))
		l.names = append(l.names, name)
	}
	bag := make([]corpus.TermCount, 0, len(counts))
	for name, c := range counts {
		bag = append(bag, corpus.TermCount{Term: l.dict[name], Count: c})
	}
	sort.Slice(bag, func(i, j int) bool { return bag[i].Term < bag[j].Term })
	return bag
}

// growDictLocked extends the dictionary with synthetic names up to the
// highest term id in the bag, mirroring the builder's AddBag.
func (l *Live) growDictLocked(bag []corpus.TermCount) {
	maxT := -1
	for _, tc := range bag {
		if int(tc.Term) > maxT {
			maxT = int(tc.Term)
		}
	}
	for len(l.names) <= maxT {
		name := fmt.Sprintf("t%d", len(l.names))
		l.dict[name] = model.TermID(len(l.names))
		l.names = append(l.names, name)
	}
}

// flushLocked freezes the memtable into an on-disk segment. Write
// order: segment directory, then manifest+dict, then WAL truncate —
// every crash window replays to the same state.
func (l *Live) flushLocked() error {
	if l.mem.docs() == 0 {
		return nil
	}
	seg := l.mem.snapshot(len(l.names), l.nextGen)
	gen := seg.gen
	segDir := segDirName(gen)
	if err := writeFrozen(filepath.Join(l.dir, segDir), seg); err != nil {
		return err
	}
	fz, err := openFrozen(filepath.Join(l.dir, segDir), gen, seg.lo, seg.hi, *l.cfg.IO)
	if err != nil {
		return err
	}
	// Digest the freshly written files so the manifest can attest to
	// them: reopening (and any future promotion of a copy) verifies the
	// bytes on disk against these before serving.
	if fz.files, fz.root, err = digestFrozen(filepath.Join(l.dir, segDir)); err != nil {
		return err
	}
	// Stage the post-flush state, then persist it. On failure the
	// in-memory splice rolls back so the memtable is never published
	// alongside a frozen segment covering the same [lo,hi) range —
	// epoch ranges must stay disjoint. nextGen is not rolled back: the
	// generation is burned so a retry never rewrites a directory a
	// partially written manifest may already reference; either the
	// manifest accounts for the orphan dir or Open's stray sweep
	// removes it.
	prevFrozen, prevWALStart := l.frozen, l.walStart
	l.nextGen = gen + 1
	l.frozen = append(append(make([]*frozenSeg, 0, len(prevFrozen)+1), prevFrozen...), fz)
	l.walStart = seg.hi
	err = l.writeManifestLocked()
	if err == nil {
		err = l.w.Reset()
	}
	if err != nil {
		l.frozen, l.walStart = prevFrozen, prevWALStart
		return err
	}
	l.trackStore(fz.inner.Store())
	l.sumFrozenDFLocked()
	l.mem = newMemtable(seg.hi)
	l.flushes.Add(1)
	l.lastFlushUnixNano.Store(time.Now().UnixNano())
	return nil
}

func segDirName(gen int) string { return fmt.Sprintf("seg-%06d", gen) }

func (l *Live) writeManifestLocked() error {
	man := manifest{Version: manifestVersion, NextGen: l.nextGen, WALStart: l.walStart}
	for _, fz := range l.frozen {
		man.Segments = append(man.Segments, segManifest{
			Dir: filepath.Base(fz.dir), Gen: fz.gen, Lo: fz.lo, Hi: fz.hi, Docs: fz.docs(),
			Files: fz.files, MerkleRoot: fz.root,
		})
	}
	rawMan, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("liveindex: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(l.dir, ManifestFile), rawMan); err != nil {
		return err
	}
	rawDict, err := json.Marshal(l.names)
	if err != nil {
		return fmt.Errorf("liveindex: %w", err)
	}
	return writeFileAtomic(filepath.Join(l.dir, DictFile), rawDict)
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("liveindex: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("liveindex: %w", err)
	}
	return nil
}

// sumFrozenDFLocked recomputes frozenDF from every frozen segment's
// df. It runs where the frozen set changes — open, flush and the
// compaction splice — so that an append, which only grows the
// memtable, does not re-sum every segment over the whole dictionary.
func (l *Live) sumFrozenDFLocked() {
	var nTerms int
	for _, fz := range l.frozen {
		nTerms = max(nTerms, len(fz.dfs))
	}
	df := make([]int32, nTerms)
	for _, fz := range l.frozen {
		for t, d := range fz.dfs {
			df[t] += d
		}
	}
	l.frozenDF = df
}

// publishLocked recomputes the global statistics of the current
// segment set — frozenDF plus the memtable's lists — and swaps in the
// new epoch.
func (l *Live) publishLocked() {
	nTerms := len(l.names)
	memSeg := l.mem.snapshot(nTerms, l.nextGen)
	n := int(memSeg.hi)

	df := make([]int32, nTerms)
	copy(df, l.frozenDF)
	for t, mt := range memSeg.terms {
		if mt != nil {
			df[t] += int32(len(mt.post))
		}
	}

	views := make([]*segView, 0, len(l.frozen)+1)
	for _, fz := range l.frozen {
		views = append(views, &segView{seg: &fz.segment, src: fz.inner, n: n, df: df})
	}
	if memSeg.docs() > 0 {
		views = append(views, &segView{seg: &memSeg.segment, src: memSeg, n: n, df: df})
	}
	l.cur.Store(&epoch{n: n, df: df, views: views})
}

// Flush forces the current memtable (if non-empty) into an on-disk
// segment.
func (l *Live) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		return err
	}
	l.publishLocked()
	return nil
}

// Compact runs one compaction pass synchronously and reports whether
// it merged anything. It serializes with the background compactor —
// only one merge is ever in flight.
func (l *Live) Compact() (bool, error) {
	return l.compactOnce(context.Background())
}

// CompactContext is Compact under a context: cancellation abandons the
// merge with all simulated I/O settled and no partial segment left
// behind, reporting (false, nil).
func (l *Live) CompactContext(ctx context.Context) (bool, error) {
	return l.compactOnce(ctx)
}

// Close stops the ingest batcher and compactor and closes the WAL.
// The memtable's contents stay durable in the WAL; reopening replays
// them.
func (l *Live) Close() error {
	l.appendMu.Lock()
	if l.closed {
		l.appendMu.Unlock()
		return nil
	}
	l.closed = true
	close(l.reqs)
	l.appendMu.Unlock()
	<-l.ingesterDone
	l.compactCancel()
	<-l.compactDone
	l.mu.Lock()
	err := l.w.Close()
	l.mu.Unlock()
	return err
}

// Lookup resolves a term name against the current dictionary.
func (l *Live) Lookup(name string) (model.TermID, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.dict[name]
	return t, ok
}

// epochNow returns the current published epoch.
func (l *Live) epochNow() *epoch { return l.cur.Load() }

var _ topk.Algorithm = (*Live)(nil)

// Name implements topk.Algorithm.
func (l *Live) Name() string { return "Live" }

// NumDocs returns the current epoch's corpus size; NumTerms its
// dictionary size.
func (l *Live) NumDocs() int  { return l.epochNow().n }
func (l *Live) NumTerms() int { return len(l.epochNow().df) }

// Search evaluates q over the current epoch with the configured
// per-segment algorithm, merging segment results the way shard
// results merge. Equivalent to SearchContext(context.Background()).
func (l *Live) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return l.SearchContext(context.Background(), q, opts)
}

// SearchContext evaluates q over the epoch current at call time: one
// algorithm instance per segment, all segments at once, through
// topk.FanOut, which merges the partial top-ks (topk.MergeTopK) and
// folds their Stats. Segments cover disjoint document ranges and score
// under the epoch's global statistics, so exact parts — each the
// reference's bytes — merge into the exact answer with no further pass.
// Epochs published mid-query do not disturb it. The stop reason is the
// most telling of the segments' (topk.Stats.Fold).
func (l *Live) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	views := l.epochNow().views
	return topk.FanOut(ctx, q, opts, len(views), len(views), "", func(ctx context.Context, i int, opts topk.Options) (model.TopK, topk.Stats, error) {
		return l.cfg.Factory(views[i]).SearchContext(ctx, q, opts)
	})
}

// SegmentStats describes one segment of the current epoch.
type SegmentStats struct {
	Kind       string      `json:"kind"` // "memtable" or "frozen"
	Generation int         `json:"generation"`
	Lo         model.DocID `json:"lo"`
	Hi         model.DocID `json:"hi"`
	Docs       int         `json:"docs"`
	Bytes      int64       `json:"bytes"`
	Blocks     int         `json:"blocks,omitempty"` // frozen only
}

// SegmentStats lists the current epoch's segments in document order.
func (l *Live) SegmentStats() []SegmentStats {
	ep := l.epochNow()
	out := make([]SegmentStats, len(ep.views))
	for i, v := range ep.views {
		s := v.seg
		out[i] = SegmentStats{Kind: s.kind, Generation: s.gen, Lo: s.lo, Hi: s.hi,
			Docs: s.docs(), Bytes: s.bytes, Blocks: s.blocks}
	}
	return out
}

// MemtableDocs returns the document count of the (unpublished live)
// memtable; MemtableBytes its approximate heap footprint; WALBytes
// the current log size. All are metrics-path accessors.
func (l *Live) MemtableDocs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mem.docs()
}

func (l *Live) MemtableBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mem.bytes
}

func (l *Live) WALBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.size
}

// Flushes returns how many memtable flushes have completed since Open;
// Compactions how many segment merges. Metrics-path accessors.
func (l *Live) Flushes() int64     { return l.flushes.Load() }
func (l *Live) Compactions() int64 { return l.compactions.Load() }
