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
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
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
	out       io.Writer
	cw, cwx   *bench.Env
	ram       *bench.Env
	sweepHigh map[string][]bench.SweepPoint // cached fig3a/3b data per corpus
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		docs    = flag.Int("docs", 0, "base corpus documents (default 50000)")
		scale   = flag.Int("scale", 10, "CWX10 scale factor")
		k       = flag.Int("k", 10, "retrieval depth (k/corpus selectivity matches the paper's 1000/50M)")
		nq      = flag.Int("queries", 10, "queries per measurement point")
		threads = flag.Int("threads", 12, "max worker threads (paper: 12-core Xeon)")
		shards  = flag.Int("shards", 12, "sNRA shards")
		budget  = flag.Int("budget", 200_000, "candidate memory budget in entries (<0 disables)")
		seed    = flag.Uint64("seed", 2020, "workload seed")
		ram     = flag.Bool("ram", false, "RAM-resident indexes (no simulated I/O)")
		delta   = flag.Duration("delta", 5*time.Millisecond, "TA-family Δ (high recall)")
		fHigh   = flag.Float64("fhigh", 2, "pBMW f (high recall)")
		fLow    = flag.Float64("flow", 6, "pBMW f (low recall)")
		pHigh   = flag.Float64("phigh", 0.30, "pJASS p (high recall)")
		pLow    = flag.Float64("plow", 0.10, "pJASS p (low recall)")
		outDir  = flag.String("outdir", "", "also write each artifact to <outdir>/<name>.txt")
	)
	flag.Parse()

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
			QueriesPerLength: max(*nq, 10),
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
