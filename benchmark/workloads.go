package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"sparta"
	"sparta/internal/cindex"
	"sparta/internal/core"
	"sparta/internal/corpus"
	"sparta/internal/iomodel"
	"sparta/internal/liveindex"
	"sparta/internal/metrics"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/postings"
	"sparta/internal/shardrpc"
	"sparta/internal/shardserve"
	"sparta/internal/topk"
)

// Constants of the workloads. They are the benchmark's definition, not
// knobs: a later change that wants another value adds a workload.
const (
	retrievalK = 10
	// innerShards is the build-time sNRA pre-partition count every disk
	// index in the repository is built with (diskindex.DefaultShards).
	innerShards = 12
	// spartaDelta is the repository's calibrated high-recall stop
	// (internal/bench DefaultTuning().Delta). It is repeated here because
	// the benchmark may not import internal/bench, which ROADMAP item 1
	// deletes.
	spartaDelta = 5 * time.Millisecond

	// The serving configuration examples/server ships with.
	serveMaxConcurrent = 12
	serveBatchWindow   = 200 * time.Microsecond
	serveMaxBatch      = 8
	serveCacheBytes    = 16 << 20

	// disk_voice runs against caches far smaller than its 52 MB index.
	smallPageCacheBlocks = 512 // x 8 KB blocks = 4 MB
	smallCacheBytes      = 4 << 20

	openTick  = 20 * time.Millisecond // open loops: one arrival instant per tick
	burstSize = 4                     // open_burst: requests due at each instant

	wireShards     = 2
	wireCacheBytes = 8 << 20
	wireConns      = 2

	liveFlushDocs       = 500
	liveCompactSegments = 4
)

// scale sizes the inputs. defaultScale is the benchmark; the test
// shrinks it so the whole pipeline runs in seconds.
type scale struct {
	corpus       corpus.Spec
	perLength    int // voice pool: queries per length 1..12
	longPool     int // ram_long pool: 12-term queries
	liveSeedDocs int // documents in the live index before the writer starts
	checkQueries int // live_ingest: post-run identity check set
	setupReps    int // set-ups timed per run; setup_s is their median
	rounds       int // measured rounds per workload, after one discarded warm-up round
}

func defaultScale() scale {
	return scale{
		corpus:       corpus.DefaultSpec(),
		perLength:    40,
		longPool:     120,
		liveSeedDocs: 2000,
		checkQueries: 100,
		setupReps:    3,
		rounds:       5,
	}
}

// spec describes one workload: its load shape, its query pool, the
// options every query carries, and how to build the serving stack.
type spec struct {
	name string
	why  string
	// open selects an open loop (arrivals every openTick, burst requests
	// per arrival); otherwise clients closed-loop clients.
	open    bool
	burst   int
	clients int
	// long draws from the 12-term pool instead of the voice mix.
	long bool
	// exact results must equal brute force byte for byte; otherwise they
	// are scored by recall against it.
	exact bool
	// growing marks a workload whose rounds are successive stages of one
	// growing index rather than repetitions: its metrics are computed
	// over all rounds together, not as a median of rounds.
	growing bool
	opts    topk.Options
	build   func(e *env, traced bool) (*stack, error)
}

var workloads = []spec{
	{
		name:    "disk_voice",
		why:     "voice-mix queries over a 52 MB compressed index behind 4 MB caches: the capacity number, larger than the program's caches",
		clients: 2,
		opts:    topk.Options{K: retrievalK, Threads: 2, Delta: spartaDelta},
		build:   buildDiskVoice,
	},
	{
		name:    "ram_long",
		why:     "12-term exact queries on a RAM-resident index with no caches: single-query CPU latency, fits in memory",
		clients: 1,
		long:    true,
		exact:   true,
		opts:    topk.Options{K: retrievalK, Threads: 1, Exact: true},
		build:   buildRAMLong,
	},
	{
		name:  "open_idle",
		why:   "one arrival every 20 ms into the shipped batching config: every batch has one member, so batching is bypassed",
		open:  true,
		burst: 1,
		opts:  topk.Options{K: retrievalK, Threads: 1, Delta: spartaDelta},
		build: buildServing,
	},
	{
		name:  "open_burst",
		why:   "four arrivals at the same instant every 20 ms into the same config: coalescing, fused traversals and single-flight do the work",
		open:  true,
		burst: burstSize,
		opts:  topk.Options{K: retrievalK, Threads: 1, Delta: spartaDelta},
		build: buildServing,
	},
	{
		name:    "sharded_wire",
		why:     "exact queries scatter/gathered over two loopback shard servers on the uncompressed store: wire, merge and resolve",
		clients: 2,
		exact:   true,
		opts:    topk.Options{K: retrievalK, Threads: 1, Exact: true},
		build:   buildShardedWire,
	},
	{
		name:    "live_ingest",
		why:     "one writer appending WAL-synced documents beside one query client on a live index: writes beside reads",
		clients: 1,
		growing: true,
		opts:    topk.Options{K: retrievalK, Threads: 1, Exact: true},
		build:   buildLiveIngest,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// searchFn is a serving entry point: a Searcher, a bare algorithm, a
// shard group or a live index.
type searchFn func(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error)

// stack is one built workload: the entry point queries go through and
// the handles the benchmark reads layer counters from. Fields a
// workload does not use stay nil.
type stack struct {
	// entry names the span of the call into search, after the layer
	// that receives it.
	entry  string
	search searchFn

	searcher *sparta.Searcher
	registry *metrics.Registry // the searcher's exported counters
	// probe is the batching-off twin of searcher, traced runs only: the
	// Searcher builds its batch executor itself, so admission wait can
	// only be separated from the batch window where there is no window.
	probe *sparta.Searcher

	cidx        *cindex.Index
	stores      []*iomodel.Store
	caches      []*plcache.Cache
	cacheBudget int64 // summed budget of caches

	groups  []*shardserve.Group // server-side one-shard groups
	servers []*shardrpc.Server
	clients []*shardrpc.Client
	group   *shardserve.Group // the dialled client group

	live   *liveindex.Live
	writer *liveWriter

	dir string // temporary directory this stack owns

	// buildS are set-up steps timed on their own, by per-layer name.
	buildS map[string]float64
}

// unsettled sums the simulated-I/O debt every store of the stack still
// owes; the settlement invariant wants 0 whenever no query is running.
func (s *stack) unsettled() time.Duration {
	var d time.Duration
	for _, st := range s.stores {
		d += st.Unsettled()
	}
	for _, g := range s.groups {
		d += g.Unsettled()
	}
	if s.group != nil {
		d += s.group.Unsettled()
	}
	if s.live != nil {
		d += s.live.Unsettled()
	}
	return d
}

// violations counts the idle instants at which a shard server found
// itself owing I/O.
func (s *stack) violations() int64 {
	var n int64
	for _, srv := range s.servers {
		n += srv.UnsettledViolations()
	}
	return n
}

// drain waits out the work that outlives a round's queries, after which
// the stack must be settled: batch warm-up passes, and on a live index
// the compactor, which is run until it finds nothing left to merge so
// that compaction a round set off never runs inside another round.
func (s *stack) drain() error {
	if s.searcher != nil {
		s.searcher.Drain()
	}
	if s.probe != nil {
		s.probe.Drain()
	}
	for s.live != nil {
		merged, err := s.live.Compact()
		if err != nil {
			return fmt.Errorf("compacting the live index: %w", err)
		}
		if !merged {
			break
		}
	}
	return nil
}

// close releases everything the stack owns: clients, then servers, the
// live index, and the temporary directory.
func (s *stack) close() error {
	shardrpc.CloseClients(s.clients)
	for _, srv := range s.servers {
		srv.Close()
	}
	var err error
	if s.live != nil {
		err = s.live.Close()
	}
	if s.dir != "" {
		if rmErr := os.RemoveAll(s.dir); err == nil {
			err = rmErr
		}
	}
	return err
}

// newCompressed builds the group-codec compressed index over cfg and
// records how long the build took.
func newCompressed(e *env, cfg iomodel.Config, st *stack) error {
	t0 := time.Now()
	ci, err := cindex.FromIndex(e.mem, innerShards, cfg)
	if err != nil {
		return fmt.Errorf("cindex.FromIndex: %w", err)
	}
	st.buildS = map[string]float64{"cindex.build_s": time.Since(t0).Seconds()}
	st.cidx = ci
	st.stores = []*iomodel.Store{ci.Store()}
	return nil
}

func (s *stack) attachCache(budget int64) *plcache.Cache {
	c := plcache.NewWithBudget(budget)
	s.cidx.SetPostingCache(c)
	s.caches = []*plcache.Cache{c}
	s.cacheBudget = budget
	return c
}

func (s *stack) serveThrough(alg topk.Algorithm, cfg sparta.SearcherConfig) {
	s.searcher = sparta.NewSearcher(alg, cfg)
	s.registry = metrics.NewRegistry()
	s.searcher.RegisterMetrics(s.registry, "s")
	s.entry = "searcher"
	s.search = s.searcher.SearchContext
}

func buildDiskVoice(e *env, traced bool) (*stack, error) {
	cfg := iomodel.DefaultConfig()
	cfg.CacheBlocks = smallPageCacheBlocks
	st := &stack{}
	if err := newCompressed(e, cfg, st); err != nil {
		return nil, err
	}
	cache := st.attachCache(smallCacheBytes)
	st.serveThrough(core.New(st.cidx), sparta.SearcherConfig{PostingCache: cache})
	return st, nil
}

func buildRAMLong(e *env, traced bool) (*stack, error) {
	st := &stack{}
	if err := newCompressed(e, iomodel.RAMConfig(), st); err != nil {
		return nil, err
	}
	st.entry = "core"
	st.search = core.New(st.cidx).SearchContext
	return st, nil
}

// buildServing is the stack of both open loops: the serving constants
// of examples/server over one compressed index on the default store.
func buildServing(e *env, traced bool) (*stack, error) {
	st := &stack{}
	if err := newCompressed(e, iomodel.DefaultConfig(), st); err != nil {
		return nil, err
	}
	cache := st.attachCache(serveCacheBytes)
	alg := core.New(st.cidx)
	st.serveThrough(alg, sparta.SearcherConfig{
		MaxConcurrent: serveMaxConcurrent,
		BatchWindow:   serveBatchWindow,
		MaxBatch:      serveMaxBatch,
		FusedExec:     true,
		BatchWarmView: st.cidx,
		PostingCache:  cache,
	})
	if traced {
		st.probe = sparta.NewSearcher(&entryShim{alg: alg}, sparta.SearcherConfig{
			MaxConcurrent: serveMaxConcurrent,
			PostingCache:  cache,
		})
	}
	return st, nil
}

func buildShardedWire(e *env, traced bool) (*stack, error) {
	dir, err := os.MkdirTemp(e.tmpRoot, "shards-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, entry: "shardserve"}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	t0 := time.Now()
	if err := shardserve.WriteDir(e.mem, wireShards, innerShards, dir); err != nil {
		return fail(fmt.Errorf("shardserve.WriteDir: %w", err))
	}
	st.buildS = map[string]float64{"diskindex.build_s": time.Since(t0).Seconds()}

	factory := func(v postings.View) topk.Algorithm { return core.New(v) }
	addrs := make([][]string, wireShards)
	for i := 0; i < wireShards; i++ {
		g, err := shardserve.OpenShard(dir, i, factory, shardserve.Config{
			NoExactResolve: true,
			CacheBytes:     wireCacheBytes,
		})
		if err != nil {
			return fail(fmt.Errorf("shardserve.OpenShard %d: %w", i, err))
		}
		st.groups = append(st.groups, g)
		info := g.ShardInfo(0)
		for _, r := range info.Replicas {
			st.stores = append(st.stores, r.Store)
			st.caches = append(st.caches, r.Cache)
			st.cacheBudget += wireCacheBytes
		}
		srv, err := shardrpc.Listen("127.0.0.1:0", g, shardrpc.ServerConfig{})
		if err != nil {
			return fail(fmt.Errorf("shardrpc.Listen: %w", err))
		}
		st.servers = append(st.servers, srv)
		addrs[i] = []string{srv.Addr().String()}
	}

	ccfg := shardrpc.Config{Conns: wireConns}
	if traced {
		// The traced group is DialGroup's, assembled by hand so that each
		// client sits behind a timing shim.
		shards := make([]shardserve.Shard, wireShards)
		for i, a := range addrs {
			cl := shardrpc.NewClient(a[0], ccfg)
			st.clients = append(st.clients, cl)
			shim := &clientShim{cl: cl, shard: i}
			shards[i] = shardserve.Shard{
				Name:     fmt.Sprintf("shard%d", i),
				Replicas: []shardserve.Replica{{Name: a[0], Alg: shim, Resolver: shim}},
			}
		}
		st.group, err = shardserve.New(shardserve.Config{}, shards...)
	} else {
		st.group, st.clients, err = shardrpc.DialGroup(addrs, shardserve.Config{}, ccfg)
	}
	if err != nil {
		return fail(fmt.Errorf("assembling the client group: %w", err))
	}
	st.search = st.group.SearchContext
	return st, nil
}

func buildLiveIngest(e *env, traced bool) (*stack, error) {
	dir, err := os.MkdirTemp(e.tmpRoot, "live-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, entry: "liveindex"}
	st.live, err = liveindex.Open(dir, liveConfig())
	if err != nil {
		st.close()
		return nil, fmt.Errorf("liveindex.Open: %w", err)
	}
	for i := 0; i < e.sc.liveSeedDocs; i++ {
		if _, err := st.live.AppendBag(e.corp.Doc(model.DocID(i))); err != nil {
			st.close()
			return nil, fmt.Errorf("seeding the live index: %w", err)
		}
	}
	st.writer = &liveWriter{live: st.live, corp: e.corp, next: e.sc.liveSeedDocs}
	st.search = st.live.SearchContext
	return st, nil
}

func liveConfig() liveindex.Config {
	return liveindex.Config{FlushDocs: liveFlushDocs, CompactSegments: liveCompactSegments}
}
