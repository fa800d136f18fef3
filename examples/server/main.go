// Server: a minimal web-search service over the library — the
// deployment surface the paper's latency SLAs are about (§5.3 cites
// the 250 ms interactive budget), now served scatter/gather over a
// sharded index.
//
// On startup it builds a small synthetic index, partitions it into
// document-range shards — each backed by independent replicas with
// their own simulated stores and decoded-block caches — and serves
//
//	GET /search?q=<terms>&k=10&algo=sparta|pbmw|pjass&mode=exact|high
//	GET /stats
//
// Each algorithm runs through a sparta.Searcher over a shard group: the
// Searcher enforces the 250 ms SLA, the concurrent-query cap, and
// load-aware shedding (a query whose remaining budget is smaller than
// the observed admission-queue wait gets a 503 instead of a guaranteed
// timeout), while the shard group underneath fans every query out to
// all shards under per-shard deadlines, hedges stragglers, and merges
// whatever the shards deliver — a slow shard degrades the answer
// (reported as shards_dropped), never blocks it. Every query runs its
// algorithm on its own; concurrent queries that need the same posting
// block share one fetch through the shard cache's single-flight fills.
// A disconnecting client cancels its query through the request context.
//
// A fourth backend, algo=live, serves a WAL-backed segmented live
// index that accepts writes while it serves:
//
//	POST /ingest?doc=<tokens>
//
// appends a document (comma- or space-separated tokens), which is
// crash-durable and searchable by the time the request returns. The
// memtable flushes into immutable on-disk segments in the background
// and a compactor merges small segments, all without pausing queries
// (they finish on their epoch snapshot).
//
// /stats is one metrics-registry snapshot: every searcher's serving
// counters (including shed), every shard's health/cache counters
// (including single-flight duplicate-fill suppression and the
// per-replica breaker states, retries, and promotions of the failover
// machinery), and the live index's segment lifecycle gauges
// ("live.segments", "live.compactions", ...), flat JSON.
//
// A fifth backend, algo=remote, appears when -remote lists running
// cmd/shardserver processes (comma-separated, one address per shard):
// the same scatter/gather group, but every shard is another process
// reached over the shardrpc transport, and each server's counter
// snapshot is folded into /stats under "remote.server.<i>".
//
// On SIGINT/SIGTERM the server stops accepting, drains in-flight
// queries through http.Server.Shutdown under a drain deadline (so
// every query settles its simulated I/O before exit), then closes the
// remote clients and the live index.
//
//	go run ./examples/server &
//	curl 'localhost:8640/search?q=t12,t733,t5021&algo=sparta&mode=high'
//	curl -X POST 'localhost:8640/ingest?doc=t12,t12,t733'
//	curl 'localhost:8640/search?q=t12,t733&algo=live&mode=exact'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparta"
	"sparta/internal/algos/bmw"
	"sparta/internal/algos/jass"
	"sparta/internal/core"
	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/model"
	"sparta/internal/topk"
)

const (
	listenAddr = "localhost:8640"
	poolSize   = 12
	// numShards is the scatter/gather width.
	numShards = 4
	// numReplicas backs every shard with independent replicas: hedges
	// race a different replica instead of re-asking the straggler,
	// transient errors fail over with backoff, and a shard whose
	// primary goes dark promotes a verified replica. Per-replica
	// breaker state shows up under /stats as shard.<i>.replicas.
	numReplicas = 2
	// queryTimeout is the serving SLA (§5.3 cites the 250 ms
	// interactive budget); queries hitting it return partial results
	// with stop reason "deadline".
	queryTimeout = 250 * time.Millisecond
	// shardTimeout bounds each shard's share of a query: a straggling
	// shard is dropped (its partial merged in) rather than spending the
	// whole SLA.
	shardTimeout = 100 * time.Millisecond
	// postingCacheBytes bounds the decoded-block caches; Zipfian query
	// traffic keeps hot terms resident. The budget is split across the
	// per-shard caches.
	postingCacheBytes = 16 << 20
	// shedQuantile: shed a query at admission when its remaining context
	// budget is below the median observed admission-queue wait.
	shedQuantile = 0.5
	// liveSeedDocs seeds the live backend with a prefix of the corpus so
	// algo=live answers queries before the first /ingest arrives.
	liveSeedDocs = 2_000
	// liveFlushDocs is the live backend's memtable flush threshold.
	liveFlushDocs = 1_000
	// drainTimeout bounds graceful shutdown: in-flight queries get up to
	// one full SLA to finish (plus headroom for the response writes)
	// before Shutdown gives up on the connections still open.
	drainTimeout = queryTimeout + 250*time.Millisecond
)

type server struct {
	mem       *index.Index
	live      *sparta.LiveIndex
	searchers map[string]*sparta.Searcher
	// groups are the shard groups behind the sharded searchers, by the
	// same name: their per-shard counters and settlement.
	groups   map[string]*sparta.ShardGroup
	registry *sparta.MetricsRegistry
}

func main() {
	remote := flag.String("remote", "",
		"comma-separated shardserver addresses (one per shard) to serve as algo=remote")
	flag.Parse()

	spec := corpus.Spec{
		Name: "web", Docs: 10_000, Vocab: 20_000, ZipfS: 1.0,
		MeanDocLen: 120, MinDocLen: 8, QualitySigma: 1.0, Seed: 42,
	}
	log.Printf("building %d-doc index...", spec.Docs)
	mem := index.FromCorpus(corpus.New(spec))

	gcfg := sparta.ShardGroupConfig{
		CacheBytes:   postingCacheBytes / numShards,
		ShardTimeout: shardTimeout,
		Hedge:        sparta.ShardHedgeConfig{Enabled: true},
		Replicas:     numReplicas,
		TripAfter:    3,
	}
	scfg := sparta.SearcherConfig{
		Timeout:       queryTimeout,
		MaxConcurrent: poolSize,
		ShedQuantile:  shedQuantile,
	}
	s := &server{
		mem:       mem,
		searchers: map[string]*sparta.Searcher{},
		groups:    map[string]*sparta.ShardGroup{},
		registry:  sparta.NewMetricsRegistry(),
	}
	serveGroup := func(name string, g *sparta.ShardGroup) {
		s.searchers[name] = sparta.NewSearcher(g, scfg)
		s.groups[name] = g
	}
	for name, factory := range map[string]sparta.ShardFactory{
		"sparta": func(v sparta.View) sparta.Algorithm { return core.New(v) },
		"pbmw":   func(v sparta.View) sparta.Algorithm { return bmw.NewPBMW(v) },
		"pjass":  func(v sparta.View) sparta.Algorithm { return jass.NewP(v) },
	} {
		g, err := sparta.ShardIndex(mem, numShards, factory, gcfg)
		if err != nil {
			log.Fatal(err)
		}
		serveGroup(name, g)
	}

	// The live backend: the same corpus generator feeds the first
	// liveSeedDocs documents through the ingest path (so term ids line
	// up with the static backends' dictionary), then /ingest takes over.
	liveDir, err := os.MkdirTemp("", "sparta-live-")
	if err != nil {
		log.Fatal(err)
	}
	live, err := sparta.OpenLive(liveDir, sparta.LiveConfig{FlushDocs: liveFlushDocs})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("live-ingesting %d seed docs into %s...", liveSeedDocs, liveDir)
	c := corpus.New(spec)
	for i := 0; i < liveSeedDocs; i++ {
		if _, err := live.AppendBag(c.Doc(model.DocID(i))); err != nil {
			log.Fatal(err)
		}
	}

	s.live = live
	s.searchers["live"] = sparta.NewSearcher(live, scfg)

	// The remote backend: every shard is a cmd/shardserver process; the
	// group treats each address as that shard's (only) replica. Shard
	// caches live server-side, so the group config here carries only the
	// scatter/gather serving knobs.
	var remoteClients []*sparta.RemoteShard
	if *remote != "" {
		var addrs [][]string
		for _, a := range strings.Split(*remote, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, []string{a})
			}
		}
		g, clients, err := sparta.DialShards(addrs, sparta.ShardGroupConfig{
			ShardTimeout: shardTimeout,
			Hedge:        sparta.ShardHedgeConfig{Enabled: true},
			TripAfter:    3,
		}, sparta.RemoteShardConfig{})
		if err != nil {
			log.Fatal(err)
		}
		remoteClients = clients
		serveGroup("remote", g)
		// Fold every shardserver's counter snapshot into /stats; a dead
		// server reports its error instead of blocking the snapshot.
		for i, cl := range clients {
			cl := cl
			s.registry.RegisterFunc(fmt.Sprintf("remote.server.%d", i), func() any {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				defer cancel()
				st, err := cl.ServerStats(ctx)
				if err != nil {
					return map[string]any{"addr": cl.Addr(), "error": err.Error()}
				}
				return st
			})
		}
		log.Printf("remote backend: %d shardserver(s) at %s", len(addrs), *remote)
	}

	s.registry.RegisterFunc("index.docs", func() any { return mem.NumDocs() })
	s.registry.RegisterFunc("index.terms", func() any { return mem.NumTerms() })
	s.registry.RegisterFunc("index.postings", func() any { return mem.TotalPostings() })
	for name, sr := range s.searchers {
		sr.RegisterMetrics(s.registry, "serve."+name)
	}
	for name, g := range s.groups {
		g.RegisterMetrics(s.registry, "serve."+name)
	}
	live.RegisterMetrics(s.registry, "live")

	mux := http.NewServeMux()
	mux.HandleFunc("GET /search", s.handleSearch)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /stats", s.handleStats)
	log.Printf("serving %d shards on http://%s  (try /search?q=t12,t733,t5021&algo=sparta&mode=high)",
		numShards, listenAddr)

	httpSrv := &http.Server{Addr: listenAddr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	<-ctx.Done()
	stop()

	// Graceful shutdown: stop accepting, let in-flight queries finish
	// (and settle their simulated I/O) under the drain deadline, then
	// release the remote connections and the live index's WAL.
	log.Printf("shutting down: draining in-flight requests (budget %v)...", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	for name, g := range s.groups {
		if d := g.Unsettled(); d != 0 {
			log.Printf("warning: backend %q exiting with %v unsettled simulated I/O", name, d)
		}
	}
	sparta.CloseShards(remoteClients)
	if err := live.Close(); err != nil {
		log.Printf("closing live index: %v", err)
	}
	log.Printf("bye")
}

type searchResponse struct {
	Algo          string        `json:"algo"`
	Query         []int         `json:"query"`
	K             int           `json:"k"`
	LatencyMS     float64       `json:"latency_ms"`
	Stop          string        `json:"stop"`
	Postings      int64         `json:"postings"`
	ShardsDropped int           `json:"shards_dropped"`
	Results       []resultEntry `json:"results"`
}

type resultEntry struct {
	Doc   uint32  `json:"doc"`
	Score float64 `json:"score"`
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	algoName := r.URL.Query().Get("algo")
	if algoName == "" {
		algoName = "sparta"
	}
	alg, ok := s.searchers[algoName]
	if !ok {
		http.Error(w, "algo must be sparta|pbmw|pjass|live (or remote with -remote)", http.StatusBadRequest)
		return
	}

	// The live backend grows its own dictionary as documents arrive, so
	// its term-id range is independent of the static build's.
	var numTerms int
	if algoName == "live" {
		numTerms = s.live.NumTerms()
	} else {
		numTerms = s.mem.NumTerms()
	}
	q, err := parseQuery(r.URL.Query().Get("q"), numTerms)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		if k, err = strconv.Atoi(v); err != nil || k < 1 || k > 1000 {
			http.Error(w, "k must be 1..1000", http.StatusBadRequest)
			return
		}
	}

	opts := topk.Options{K: k}
	switch r.URL.Query().Get("mode") {
	case "", "high":
		opts.Delta = 5 * time.Millisecond
		opts.BoostF = 2
		opts.FracP = 0.3
	case "exact":
		opts.Exact = true
	default:
		http.Error(w, "mode must be exact|high", http.StatusBadRequest)
		return
	}
	if err := opts.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Intra-query parallelism equals the term count (the paper's
	// configuration); the Searcher's MaxConcurrent bounds how many
	// queries hold workers at once.
	opts.Threads = len(q)
	if opts.Threads > poolSize {
		opts.Threads = poolSize
	}

	// The request context propagates client disconnects; the Searcher
	// layers its 250 ms SLA timeout on top, and each shard stops at the
	// earlier of shardTimeout and the query's deadline.
	res, st, err := alg.SearchContext(r.Context(), q, opts)
	if errors.Is(err, sparta.ErrAdmissionShed) {
		// Load shedding: executing this query could only produce a result
		// after its deadline — tell the client to back off instead.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded: query shed at admission", http.StatusServiceUnavailable)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := searchResponse{
		Algo:          alg.Name(),
		K:             k,
		LatencyMS:     float64(st.Duration.Microseconds()) / 1000,
		Stop:          st.StopReason,
		Postings:      st.Postings,
		ShardsDropped: st.ShardsDropped,
	}
	for _, term := range q {
		resp.Query = append(resp.Query, int(term))
	}
	for _, rr := range res {
		resp.Results = append(resp.Results, resultEntry{
			Doc: uint32(rr.Doc), Score: rr.Score.Float(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

type ingestResponse struct {
	Doc          uint32 `json:"doc"`
	Docs         int    `json:"docs"`
	Terms        int    `json:"terms"`
	Segments     int    `json:"segments"`
	MemtableDocs int    `json:"memtable_docs"`
}

// handleIngest appends one document to the live index. The document is
// a bag of tokens ("doc" parameter, comma- or space-separated); new
// tokens grow the live dictionary. The append is in the WAL and
// searchable under algo=live when the response is written.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	raw := r.FormValue("doc")
	if strings.TrimSpace(raw) == "" {
		http.Error(w, "missing doc parameter", http.StatusBadRequest)
		return
	}
	tokens := strings.FieldsFunc(raw, func(r rune) bool { return r == ',' || r == ' ' })
	doc, err := s.live.AppendTokens(tokens)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ingestResponse{
		Doc:          uint32(doc),
		Docs:         s.live.NumDocs(),
		Terms:        s.live.NumTerms(),
		Segments:     len(s.live.SegmentStats()),
		MemtableDocs: s.live.MemtableDocs(),
	})
}

// handleStats serves the metrics registry: searcher-level serving
// counters ("serve.sparta.queries") and per-shard health and cache
// counters ("serve.sparta.shard.2") in one flat, sorted JSON document.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.registry.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseQuery accepts comma- or space-separated term ids, optionally
// prefixed "t" ("t12,t733" or "12 733").
func parseQuery(raw string, numTerms int) (model.Query, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, fmt.Errorf("missing q parameter")
	}
	fields := strings.FieldsFunc(raw, func(r rune) bool { return r == ',' || r == ' ' })
	var q model.Query
	for _, f := range fields {
		f = strings.TrimPrefix(strings.TrimSpace(f), "t")
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad term %q", f)
		}
		if id < 0 || id >= numTerms {
			return nil, fmt.Errorf("term %d out of range (0..%d)", id, numTerms-1)
		}
		q = append(q, model.TermID(id))
	}
	if len(q) > 12 {
		q = q[:12] // the paper's maximum evaluated length
	}
	return q, nil
}
