// Command experiments regenerates every table and figure of the
// paper's evaluation (§5.3) at the reproduction scale. Each subcommand
// prints rows/series in the same layout the paper reports;
// EXPERIMENTS.md records the measured outputs next to the paper's.
//
// Usage:
//
//	experiments all                 # everything (builds CW and CWX10)
//	experiments table2 table3       # individual artifacts
//	experiments -queries 20 fig3a   # more queries per point
//	experiments -docs 20000 -scale 5 all   # smaller reproduction
//
// Subcommands: table2 table3 table4 fig3a fig3b fig3c fig3d fig3e
// fig3f fig3g fig3h fig3i fig4 ramtable compression all
//
// The extra "bench" subcommand (not part of "all") runs the default
// grid with and without the decoded-block posting cache and writes the
// machine-readable BENCH_topk.json artifact consumed by CI. The
// "throughput" subcommand (also not part of "all") runs the closed-loop
// multi-client grid, batched vs sequential, and writes
// BENCH_throughput.json. The "ingest" subcommand streams documents
// into a live segmented index while query clients measure latency,
// background compaction off versus on, and writes BENCH_ingest.json.
// The "faults" subcommand serves the exact query log through a
// replicated group under a seeded fault schedule — the error-rate ×
// replica-count availability grid, one dark replica when R>1 — and
// writes BENCH_faults.json. The "netgrid" subcommand serves the exact
// query log through the same shard sets in-process and over loopback
// shardserver processes (the shardrpc transport), measuring throughput,
// tail latency, and the added wire latency, and writes BENCH_net.json.
// The "scale" subcommand builds the corpus at each -scalefactors
// multiple of the base size, compresses it with the group codec, and
// serves exact queries at each scale, writing BENCH_scale.json; each
// scale is built and released before the next so the 100x stretch fits
// in RAM.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sparta/internal/bench"
	"sparta/internal/codec"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/stats"
	"sparta/internal/topk"
)

type runner struct {
	base      corpus.Spec
	scale     int
	cfg       iomodel.Config
	envOpts   bench.EnvOptions
	tuning    bench.Tuning
	nQueries  int
	threads   int
	benchOut  string
	shardOut  string
	shardP    int
	shardTO   time.Duration
	cacheMB   int64
	tputOut   string
	tputCs    []int
	batchWin  time.Duration
	maxBatch  int
	warmBlk   int
	fused     bool
	microOut  string
	ingestOut string
	ingestN   int
	faultsOut string
	faultRate []float64
	faultReps []int
	netOut    string
	netPs     []int
	netCs     int
	scaleOut  string
	scaleFs   []int
	out       io.Writer
	cw, cwx   *bench.Env
	ram       *bench.Env
	sweepHigh map[string][]bench.SweepPoint // cached fig3a/3b data per corpus
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		docs      = flag.Int("docs", 0, "base corpus documents (default 50000)")
		scale     = flag.Int("scale", 10, "CWX10 scale factor")
		k         = flag.Int("k", 10, "retrieval depth (k/corpus selectivity matches the paper's 1000/50M)")
		nq        = flag.Int("queries", 10, "queries per measurement point")
		threads   = flag.Int("threads", 12, "max worker threads (paper: 12-core Xeon)")
		shards    = flag.Int("shards", 12, "sNRA shards")
		budget    = flag.Int("budget", 200_000, "candidate memory budget in entries (<0 disables)")
		seed      = flag.Uint64("seed", 2020, "workload seed")
		ram       = flag.Bool("ram", false, "RAM-resident indexes (no simulated I/O)")
		delta     = flag.Duration("delta", 5*time.Millisecond, "TA-family Δ (high recall)")
		fHigh     = flag.Float64("fhigh", 2, "pBMW f (high recall)")
		fLow      = flag.Float64("flow", 6, "pBMW f (low recall)")
		pHigh     = flag.Float64("phigh", 0.30, "pJASS p (high recall)")
		pLow      = flag.Float64("plow", 0.10, "pJASS p (low recall)")
		outDir    = flag.String("outdir", "", "also write each artifact to <outdir>/<name>.txt")
		benchJSON = flag.String("benchout", "BENCH_topk.json",
			"output path of the machine-readable report the bench subcommand writes")
		shardJSON = flag.String("benchshardedout", "BENCH_sharded.json",
			"output path of the sharded-serving report the bench subcommand writes")
		shardP  = flag.Int("shardp", 4, "shard count of the sharded bench section")
		shardTO = flag.Duration("shardtimeout", 2*time.Millisecond,
			"tight per-shard timeout of the sharded bench section")
		cacheMB  = flag.Int64("cachemb", 16, "posting-cache budget (MB) for the bench subcommand")
		tputJSON = flag.String("throughputout", "BENCH_throughput.json",
			"output path of the report the throughput subcommand writes")
		clients  = flag.String("clients", "1,4,16,64", "closed-loop client grid of the throughput subcommand")
		batchWin = flag.Duration("batchwindow", 200*time.Microsecond,
			"query-coalescing window of the throughput subcommand's batched rows")
		maxBatch = flag.Int("maxbatch", 16, "max queries per coalesced batch (throughput subcommand)")
		warmBlk  = flag.Int("warmblocks", 2, "leading blocks warmed per term shared across a batch")
		fused    = flag.Bool("fused", true,
			"add fused-execution rows to the throughput grid (one traversal per shared term scores the whole batch)")
		microJSON = flag.String("microout", "BENCH_fused_micro.json",
			"output path of the fusion micro-benchmark (blocks decoded per query, traversals per term) the throughput subcommand writes")
		ingestJSON = flag.String("ingestout", "BENCH_ingest.json",
			"output path of the report the ingest subcommand writes")
		ingestN    = flag.Int("ingestdocs", 3000, "documents streamed in during the ingest subcommand's measurement window")
		faultsJSON = flag.String("faultsout", "BENCH_faults.json",
			"output path of the report the faults subcommand writes")
		faultRates = flag.String("faultrates", "0,0.05,0.10,0.20",
			"per-attempt transient error rates of the faults subcommand's grid")
		faultReps = flag.String("faultreplicas", "1,2,3",
			"replica counts of the faults subcommand's grid")
		netJSON = flag.String("netout", "BENCH_net.json",
			"output path of the report the netgrid subcommand writes")
		netPs = flag.String("netshards", "2,4",
			"shard counts of the netgrid subcommand (each run in-process and over loopback TCP)")
		netCs     = flag.Int("netclients", 8, "closed-loop clients of the netgrid subcommand")
		scaleJSON = flag.String("scaleout", "BENCH_scale.json",
			"output path of the report the scale subcommand writes")
		scaleFs = flag.String("scalefactors", "1,10,100",
			"corpus scale factors of the scale subcommand (1 = base size)")
	)
	flag.Parse()

	clientGrid, err := parseInts(*clients)
	if err != nil {
		log.Fatalf("-clients: %v", err)
	}
	rateGrid, err := parseRates(*faultRates)
	if err != nil {
		log.Fatalf("-faultrates: %v", err)
	}
	repGrid, err := parseInts(*faultReps)
	if err != nil {
		log.Fatalf("-faultreplicas: %v", err)
	}
	netGrid, err := parseInts(*netPs)
	if err != nil {
		log.Fatalf("-netshards: %v", err)
	}
	scaleGrid, err := parseInts(*scaleFs)
	if err != nil {
		log.Fatalf("-scalefactors: %v", err)
	}

	base := corpus.DefaultSpec()
	if *docs > 0 {
		base.Docs = *docs
	}
	base.Seed = *seed

	cfg := iomodel.DefaultConfig()
	if *ram {
		cfg = iomodel.RAMConfig()
	}

	r := &runner{
		base:  base,
		scale: *scale,
		cfg:   cfg,
		envOpts: bench.EnvOptions{
			K:                *k,
			QueriesPerLength: maxInt(*nq, 10),
			Shards:           *shards,
			Seed:             *seed,
			MemBudgetEntries: *budget,
		},
		tuning: bench.Tuning{
			Delta: *delta,
			FHigh: *fHigh, FLow: *fLow,
			PHigh: *pHigh, PLow: *pLow,
		},
		nQueries:  *nq,
		threads:   *threads,
		benchOut:  *benchJSON,
		shardOut:  *shardJSON,
		shardP:    *shardP,
		shardTO:   *shardTO,
		cacheMB:   *cacheMB,
		tputOut:   *tputJSON,
		tputCs:    clientGrid,
		batchWin:  *batchWin,
		maxBatch:  *maxBatch,
		warmBlk:   *warmBlk,
		fused:     *fused,
		microOut:  *microJSON,
		ingestOut: *ingestJSON,
		ingestN:   *ingestN,
		faultsOut: *faultsJSON,
		faultRate: rateGrid,
		faultReps: repGrid,
		netOut:    *netJSON,
		netPs:     netGrid,
		netCs:     *netCs,
		scaleOut:  *scaleJSON,
		scaleFs:   scaleGrid,
		out:       os.Stdout,
		sweepHigh: make(map[string][]bench.SweepPoint),
	}

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	// The paper's artifacts, plus two appendix experiments: the
	// RAM-resident configuration §5 mentions but omits, and the
	// compression comparison behind §5's decompression claim.
	all := []string{"table2", "table3", "table4", "fig3a", "fig3b", "fig3c",
		"fig3d", "fig3e", "fig3f", "fig3g", "fig3h", "fig3i", "fig4",
		"ramtable", "compression"}
	var todo []string
	for _, n := range names {
		if n == "all" {
			todo = append(todo, all...)
		} else {
			todo = append(todo, n)
		}
	}

	for _, name := range todo {
		text, err := r.run(name)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintln(r.out, text)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*outDir, name+".txt")
			if err := os.WriteFile(path, []byte(text+"\n"), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// parseRates parses a comma-separated list of probabilities in [0,1).
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("error rates must be in [0,1), got %g", p)
		}
		out = append(out, p)
	}
	return out, nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("client counts must be positive, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// envCW lazily builds the base-scale environment.
func (r *runner) envCW() (*bench.Env, error) {
	if r.cw == nil {
		log.Printf("building %s environment...", r.base.Name)
		start := time.Now()
		env, err := bench.NewEnv(r.base, r.cfg, r.envOpts)
		if err != nil {
			return nil, err
		}
		r.cw = env
		log.Printf("%s ready in %v (%s)", r.base.Name,
			time.Since(start).Round(time.Millisecond), env.Describe())
	}
	return r.cw, nil
}

// envRAM lazily builds the RAM-resident base-scale environment.
func (r *runner) envRAM() (*bench.Env, error) {
	if r.ram == nil {
		log.Printf("building %s RAM-resident environment...", r.base.Name)
		env, err := bench.NewEnv(r.base, iomodel.RAMConfig(), r.envOpts)
		if err != nil {
			return nil, err
		}
		r.ram = env
	}
	return r.ram, nil
}

// envCWX lazily builds the scaled environment.
func (r *runner) envCWX() (*bench.Env, error) {
	if r.cwx == nil {
		spec := corpus.ScaledSpec(r.base, r.scale)
		log.Printf("building %s environment (this is the big one)...", spec.Name)
		start := time.Now()
		env, err := bench.NewEnv(spec, r.cfg, r.envOpts)
		if err != nil {
			return nil, err
		}
		r.cwx = env
		log.Printf("%s ready in %v (%s)", spec.Name,
			time.Since(start).Round(time.Millisecond), env.Describe())
	}
	return r.cwx, nil
}

// highSweep runs (or returns the cached) latency-vs-length sweep of the
// high-recall variants; fig3a and fig3b share it.
func (r *runner) highSweep(env *bench.Env) []bench.SweepPoint {
	if pts, ok := r.sweepHigh[env.Spec.Name]; ok {
		return pts
	}
	lengths := []int{1, 2, 4, 6, 8, 10, 12}
	pts := env.RunLatencySweep(env.HighVariants(r.tuning), lengths, r.nQueries)
	r.sweepHigh[env.Spec.Name] = pts
	return pts
}

func (r *runner) run(name string) (string, error) {
	meanOf := func(c bench.LatencyCell) float64 { return c.Mean }
	p95Of := func(c bench.LatencyCell) float64 { return c.P95 }
	postOf := func(c bench.LatencyCell) float64 { return c.Postings }
	lengths := []int{1, 2, 4, 6, 8, 10, 12}

	switch name {
	case "table2":
		cw, err := r.envCW()
		if err != nil {
			return "", err
		}
		cwx, err := r.envCWX()
		if err != nil {
			return "", err
		}
		pCW := cw.RunTable2(r.nQueries, r.threads)
		pX := cwx.RunTable2(r.nQueries, r.threads)
		s := bench.FormatTable("Table 2 ("+cw.Spec.Name+"): mean latency (ms), 12-term exact queries, 12 threads",
			"mean ms", pCW, meanOf)
		s += "\n" + bench.FormatTable("Table 2 ("+cwx.Spec.Name+")",
			"mean ms", pX, meanOf)
		// Machine-independent work metric alongside wall-clock.
		s += "\n" + bench.FormatTable("Table 2 work ("+cw.Spec.Name+"): mean postings traversed",
			"postings", pCW, postOf)
		s += "\n" + bench.FormatTable("Table 2 work ("+cwx.Spec.Name+")",
			"postings", pX, postOf)
		return s, nil

	case "table3":
		cw, err := r.envCW()
		if err != nil {
			return "", err
		}
		cwx, err := r.envCWX()
		if err != nil {
			return "", err
		}
		s := bench.FormatRecallTable("Table 3 ("+cw.Spec.Name+"): recall of approximate variants, 12-term queries",
			cw.RunTable3(r.tuning, r.nQueries, r.threads))
		s += "\n" + bench.FormatRecallTable("Table 3 ("+cwx.Spec.Name+")",
			cwx.RunTable3(r.tuning, r.nQueries, r.threads))
		return s, nil

	case "table4":
		cw, err := r.envCW()
		if err != nil {
			return "", err
		}
		cwx, err := r.envCWX()
		if err != nil {
			return "", err
		}
		vs := func(e *bench.Env) []bench.Variant {
			hv := e.HighVariants(r.tuning)
			// Table 4 columns: Sparta, pRA, pBMW, pJASS (high recall).
			var out []bench.Variant
			for _, v := range hv {
				switch v.ID {
				case bench.AlgoSparta, bench.AlgoPRA, bench.AlgoPBMW, bench.AlgoPJASS:
					out = append(out, v)
				}
			}
			return out
		}
		n := r.nQueries * 10
		s := bench.FormatThroughput("Table 4 ("+cw.Spec.Name+"): throughput (qps), voice-query mix, shared 12-thread pool",
			cw.RunThroughput(vs(cw), r.threads, n))
		s += "\n" + bench.FormatThroughput("Table 4 ("+cwx.Spec.Name+")",
			cwx.RunThroughput(vs(cwx), r.threads, n))
		return s, nil

	case "fig3a", "fig3b":
		env, err := r.envCW()
		if err != nil {
			return "", err
		}
		pts := r.highSweep(env)
		if name == "fig3a" {
			s := bench.FormatSweep("Figure 3a (CW): mean latency (ms) vs query length, high-recall variants",
				"m", pts, meanOf)
			s += "\n" + bench.FormatSweep("Figure 3a work (CW): mean postings traversed",
				"m", pts, postOf)
			return s, nil
		}
		return bench.FormatSweep("Figure 3b (CW): 95th-percentile latency (ms) vs query length",
			"m", pts, p95Of), nil

	case "fig3c":
		env, err := r.envCWX()
		if err != nil {
			return "", err
		}
		pts := r.highSweep(env)
		s := bench.FormatSweep("Figure 3c ("+env.Spec.Name+"): mean latency (ms) vs query length, high-recall variants",
			"m", pts, meanOf)
		s += "\n" + bench.FormatSweep("Figure 3c work ("+env.Spec.Name+"): mean postings traversed",
			"m", pts, postOf)
		return s, nil

	case "fig3d", "fig3e":
		env, err := r.envCW()
		if err != nil {
			return "", err
		}
		var vs []bench.Variant
		for _, v := range env.HighVariants(r.tuning) {
			if v.ID == bench.AlgoSparta || v.ID == bench.AlgoPBMW || v.ID == bench.AlgoPJASS {
				vs = append(vs, v)
			}
		}
		vs = append(vs, env.LowVariants(r.tuning)...)
		pts := env.RunLatencySweep(vs, lengths, r.nQueries)
		if name == "fig3d" {
			return bench.FormatSweep("Figure 3d (CW): mean latency (ms): Sparta-high vs low-recall state of the art",
				"m", pts, meanOf), nil
		}
		return bench.FormatSweep("Figure 3e (CW): 95th-percentile latency (ms): Sparta-high vs low-recall state of the art",
			"m", pts, p95Of), nil

	case "fig3f", "fig3g":
		var env *bench.Env
		var err error
		if name == "fig3f" {
			env, err = r.envCW()
		} else {
			env, err = r.envCWX()
		}
		if err != nil {
			return "", err
		}
		// Exact versions of Sparta, pRA, pJASS (identical to the
		// approximate until they stop), plus all three pBMW instances.
		t := r.tuning
		vs := []bench.Variant{
			env.Variant(bench.AlgoSparta, "exact", t),
			env.Variant(bench.AlgoPRA, "exact", t),
			env.Variant(bench.AlgoPJASS, "exact", t),
			env.Variant(bench.AlgoPBMW, "exact", t),
		}
		for _, v := range env.HighVariants(t) {
			if v.ID == bench.AlgoPBMW {
				vs = append(vs, v)
			}
		}
		for _, v := range env.LowVariants(t) {
			if v.ID == bench.AlgoPBMW {
				vs = append(vs, v)
			}
		}
		// Horizons sized to the measured exact-variant latency ranges
		// (the paper plots up to one minute on its hardware).
		step := 4 * time.Millisecond
		horizon := 200 * time.Millisecond
		if name == "fig3g" {
			horizon = 2 * time.Second
			step = 40 * time.Millisecond
		}
		ds := env.RunRecallDynamics(vs, r.nQueries, r.threads, step, horizon)
		s := bench.FormatDynamics("Figure 3"+name[4:]+" ("+env.Spec.Name+"): recall vs elapsed time, 12-term queries, 12 workers",
			ds, step, horizon)
		s += "\n" + bench.PlotDynamics("(shape: recall sparklines)", ds, step, horizon)
		return s, nil

	case "fig3h", "fig3i":
		var env *bench.Env
		var err error
		if name == "fig3h" {
			env, err = r.envCW()
		} else {
			env, err = r.envCWX()
		}
		if err != nil {
			return "", err
		}
		threadCounts := []int{1, 2, 4, 6, 8, 10, 12}
		pts := env.RunParallelismSweep(env.HighVariants(r.tuning), threadCounts, r.nQueries)
		s := bench.FormatSweep("Figure 3"+name[4:]+" ("+env.Spec.Name+"): mean latency (ms) vs worker threads, 12-term queries",
			"threads", pts, meanOf)
		s += "\n" + bench.PlotSweep("(shape: log-scaled latency)", pts, meanOf)
		return s, nil

	case "fig4":
		env, err := r.envCW()
		if err != nil {
			return "", err
		}
		var vs []bench.Variant
		for _, v := range env.HighVariants(r.tuning) {
			switch v.ID {
			case bench.AlgoSparta, bench.AlgoPRA, bench.AlgoPBMW, bench.AlgoPJASS:
				vs = append(vs, v)
			}
		}
		pts := env.RunThroughputByLength(vs, lengths, r.threads, r.nQueries*5)
		return bench.FormatSweep("Figure 4 (CW): throughput (qps) vs query length, shared 12-thread pool",
			"m", pts, func(c bench.LatencyCell) float64 { return c.Mean }), nil

	case "ramtable":
		// Appendix: the RAM-resident configuration. §5: "We also
		// experimented with RAM-resident indexes, and in all cases, all
		// algorithms except pRA got similar results" — with no I/O to
		// amortize, pRA loses its random-access penalty entirely.
		env, err := r.envRAM()
		if err != nil {
			return "", err
		}
		p := env.RunTable2(r.nQueries, r.threads)
		return bench.FormatTable("Appendix (CW, RAM-resident): mean latency (ms), 12-term exact queries",
			"mean ms", p, meanOf), nil

	case "bench":
		// The machine-readable benchmark artifact: the default grid with
		// and without the decoded-block posting cache, as ns/op plus the
		// reader-accounting and cache metrics the read path is judged on.
		env, err := r.envCW()
		if err != nil {
			return "", err
		}
		rep := env.RunBenchReport(r.tuning, r.nQueries, r.threads, r.cacheMB<<20)
		if err := rep.WriteJSON(r.benchOut); err != nil {
			return "", err
		}
		srep, err := env.RunShardedBenchReport(r.tuning, r.nQueries, r.threads,
			r.shardP, r.cacheMB<<20, r.shardTO)
		if err != nil {
			return "", err
		}
		if err := srep.WriteJSON(r.shardOut); err != nil {
			return "", err
		}
		return rep.Summary() + "\nwrote " + r.benchOut + "\n\n" +
			srep.Summary() + "\nwrote " + r.shardOut, nil

	case "throughput":
		// The multi-query serving artifact: closed-loop clients over the
		// Zipfian voice mix, sequential vs batched (coalescing window +
		// shared warm-up + single-flight block fills) vs fused (one
		// traversal per shared term scores the whole batch), plus the
		// fusion micro-benchmark (blocks decoded per query, traversals
		// per term).
		env, err := r.envCW()
		if err != nil {
			return "", err
		}
		rep := env.RunThroughputReport(r.tuning, bench.ThroughputConfig{
			Clients:          r.tputCs,
			QueriesPerClient: maxInt(r.nQueries*2, 20),
			Threads:          r.threads,
			CacheBytes:       r.cacheMB << 20,
			Window:           r.batchWin,
			MaxBatch:         r.maxBatch,
			WarmBlocks:       r.warmBlk,
			Fused:            r.fused,
		})
		if err := rep.WriteJSON(r.tputOut); err != nil {
			return "", err
		}
		wrote := "\nwrote " + r.tputOut
		if r.fused {
			if err := rep.Micro().WriteJSON(r.microOut); err != nil {
				return "", err
			}
			wrote += "\nwrote " + r.microOut
		}
		return rep.Summary() + wrote, nil

	case "ingest":
		// The ingest-under-load artifact: query latency percentiles
		// against a live segmented index during sustained ingest,
		// background compaction off vs on.
		env, err := r.envCW()
		if err != nil {
			return "", err
		}
		rep, err := env.RunIngestReport(bench.IngestConfig{
			Docs:       r.ingestN,
			MinQueries: maxInt(r.nQueries*20, 200),
			Threads:    maxInt(r.threads/4, 1),
		})
		if err != nil {
			return "", err
		}
		if err := rep.WriteJSON(r.ingestOut); err != nil {
			return "", err
		}
		return rep.Summary() + "\nwrote " + r.ingestOut, nil

	case "faults":
		// The chaos-serving artifact: availability and exactness of the
		// replicated scatter/gather layer across the error-rate ×
		// replica-count grid, a seeded fault schedule on every replica
		// and a permanently dark one on shard 0 when there is a spare.
		env, err := r.envCW()
		if err != nil {
			return "", err
		}
		rep, err := env.RunFaultsBenchReport(maxInt(r.nQueries*5, 50), r.threads,
			r.shardP, r.faultRate, r.faultReps, r.envOpts.Seed)
		if err != nil {
			return "", err
		}
		if err := rep.WriteJSON(r.faultsOut); err != nil {
			return "", err
		}
		return rep.Summary() + "\nwrote " + r.faultsOut, nil

	case "netgrid":
		// The remote-serving artifact: the same exact query log through
		// the same shard sets, in-process vs over loopback shardserver
		// processes, measuring what the wire adds.
		env, err := r.envCW()
		if err != nil {
			return "", err
		}
		rep, err := env.RunNetBenchReport(maxInt(r.nQueries*10, 100),
			maxInt(r.threads/4, 2), r.netCs, r.netPs, r.envOpts.Seed)
		if err != nil {
			return "", err
		}
		if err := rep.WriteJSON(r.netOut); err != nil {
			return "", err
		}
		return rep.Summary() + "\nwrote " + r.netOut, nil

	case "scale":
		// The scale-envelope artifact: compression ratio and serving
		// metrics as the corpus grows past the base scale. Each factor
		// builds, measures, and frees its indexes before the next one so
		// the peak resident set is a single corpus.
		rep, err := bench.RunScaleReport(r.base, r.scaleFs, r.cfg, r.envOpts,
			maxInt(r.nQueries, 5), r.threads,
			[]bench.AlgoID{bench.AlgoSparta, bench.AlgoPBMW, bench.AlgoPJASS},
			func(msg string) { log.Print(msg) })
		if err != nil {
			return "", err
		}
		if err := rep.WriteJSON(r.scaleOut); err != nil {
			return "", err
		}
		return rep.Summary() + "\nwrote " + r.scaleOut, nil

	case "compression":
		// Appendix: §5's justification for benchmarking uncompressed —
		// "the impact of decompression on end-to-end performance is
		// marginal". Same queries over both index forms.
		env, err := r.envCW()
		if err != nil {
			return "", err
		}
		ci, err := diskindex.FromIndexWith(env.Mem, r.envOpts.Shards, r.cfg, codec.Group)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Appendix (CW): compressed vs uncompressed index, 12-term queries, 12 threads\n")
		fmt.Fprintf(&b, "index size: %d bytes compressed vs %d raw (%.2fx)\n",
			ci.CompressedBytes(), ci.RawBytes(),
			float64(ci.RawBytes())/float64(ci.CompressedBytes()))
		qs := env.Sets.Length(12)[:r.nQueries]
		for _, id := range []bench.AlgoID{bench.AlgoSparta, bench.AlgoPBMW, bench.AlgoPJASS} {
			var uncomp, comp stats.Sample
			env.FlushAndReset()
			for _, q := range qs {
				_, st, err := bench.MakeAlgorithm(id, env.Disk).Search(q,
					topk.Options{K: r.envOpts.K, Threads: r.threads, Exact: true})
				if err != nil {
					return "", err
				}
				uncomp.AddDuration(st.Duration)
			}
			ci.Store().Flush()
			for _, q := range qs {
				_, st, err := bench.MakeAlgorithm(id, ci).Search(q,
					topk.Options{K: r.envOpts.K, Threads: r.threads, Exact: true})
				if err != nil {
					return "", err
				}
				comp.AddDuration(st.Duration)
			}
			fmt.Fprintf(&b, "%-8s uncompressed %8.2fms   compressed %8.2fms   (%.0f%% delta)\n",
				id, uncomp.Mean(), comp.Mean(), (comp.Mean()/uncomp.Mean()-1)*100)
		}
		return b.String(), nil
	}
	return "", fmt.Errorf("unknown experiment %q", name)
}
