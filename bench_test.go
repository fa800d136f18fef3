// Benchmarks mirroring the paper's tables and figures at test scale
// (see DESIGN.md §3 for the experiment-to-bench map). These run each
// artifact's inner measurement — one query evaluation per iteration —
// over a small shared environment so `go test -bench=.` finishes in
// minutes; cmd/experiments runs the full-scale versions with the
// paper's layouts.
//
// Benchmarks report, besides ns/op:
//
//	postings/op — posting entries traversed (machine-independent work)
//	recall      — result quality vs the exact top-k
//
// Ablation benchmarks (BenchmarkAblation*) isolate the design choices
// DESIGN.md §4 calls out: deferred UB publication, cleaner shrinking,
// termMap replicas, docMap lock granularity, and segment size.
package sparta_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sparta/internal/bench"
	"sparta/internal/cindex"
	"sparta/internal/core"
	"sparta/internal/corpus"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/sched"
	"sparta/internal/topk"
)

const (
	benchK       = 50
	benchThreads = 12
)

var (
	envOnce sync.Once
	benchEn *bench.Env
)

// benchEnv lazily builds the shared benchmark environment: an 8K-doc
// ClueWeb-like corpus on simulated disk.
func benchEnv(b *testing.B) *bench.Env { return benchEnvT(b) }

// benchEnvT is the testing.TB-generic form, shared with the root
// integration tests.
func benchEnvT(tb testing.TB) *bench.Env {
	tb.Helper()
	envOnce.Do(func() {
		spec := corpus.Spec{
			Name: "bench", Docs: 8_000, Vocab: 20_000, ZipfS: 1.0,
			MeanDocLen: 100, MinDocLen: 8, Seed: 7,
		}
		cfg := iomodel.DefaultConfig()
		env, err := bench.NewEnv(spec, cfg, bench.EnvOptions{
			K: benchK, QueriesPerLength: 10, Shards: 12, MemBudgetEntries: -1,
		})
		if err != nil {
			panic(err)
		}
		benchEn = env
	})
	return benchEn
}

// runQueryBench measures one variant on m-term queries with the given
// parallelism, reporting work and recall metrics.
func runQueryBench(b *testing.B, v bench.Variant, m, threads int) {
	env := benchEnv(b)
	qs := env.Sets.Length(m)
	env.FlushAndReset()
	var postings int64
	var recall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		opts := v.Opts
		opts.Threads = threads
		alg := bench.MakeAlgorithm(v.ID, env.Disk)
		res, st, err := alg.Search(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		postings += st.Postings
		recall += model.Recall(env.Exact(q), res)
	}
	b.StopTimer()
	b.ReportMetric(float64(postings)/float64(b.N), "postings/op")
	b.ReportMetric(recall/float64(b.N), "recall")
}

// variantByLabel finds a configured variant by its report label.
func variantByLabel(b *testing.B, label string) bench.Variant {
	env := benchEnv(b)
	t := bench.DefaultTuning()
	all := append(env.ExactVariants(), append(env.HighVariants(t), env.LowVariants(t)...)...)
	for _, v := range all {
		if v.Label == label {
			return v
		}
	}
	b.Fatalf("no variant %q", label)
	return bench.Variant{}
}

// BenchmarkTable2 — mean latency of 12-term exact queries, 12 threads
// (Table 2's measurement, per algorithm).
func BenchmarkTable2(b *testing.B) {
	for _, label := range []string{
		"Sparta-exact", "pNRA-exact", "sNRA-exact", "pRA-exact", "pBMW-exact", "pJASS-exact",
	} {
		b.Run(label, func(b *testing.B) {
			runQueryBench(b, variantByLabel(b, label), 12, benchThreads)
		})
	}
}

// BenchmarkTable3 — the approximate variants on 12-term queries
// (Table 3 reports their recall; the recall metric is attached).
func BenchmarkTable3(b *testing.B) {
	for _, label := range []string{
		"Sparta-high", "pRA-high", "pNRA-high", "sNRA-high",
		"pBMW-high", "pBMW-low", "pJASS-high", "pJASS-low",
	} {
		b.Run(label, func(b *testing.B) {
			runQueryBench(b, variantByLabel(b, label), 12, benchThreads)
		})
	}
}

// BenchmarkFig3Latency — latency vs query length for the high-recall
// variants (Figures 3a–3c's measurement; threads = m).
func BenchmarkFig3Latency(b *testing.B) {
	for _, m := range []int{2, 6, 12} {
		for _, label := range []string{"Sparta-high", "pRA-high", "pBMW-high", "pJASS-high"} {
			b.Run(fmt.Sprintf("m=%d/%s", m, label), func(b *testing.B) {
				runQueryBench(b, variantByLabel(b, label), m, m)
			})
		}
	}
}

// BenchmarkFig3dLowRecall — Sparta-high vs the low-recall state of the
// art (Figures 3d–3e's measurement).
func BenchmarkFig3dLowRecall(b *testing.B) {
	for _, label := range []string{"Sparta-high", "pBMW-low", "pJASS-low"} {
		b.Run(label, func(b *testing.B) {
			runQueryBench(b, variantByLabel(b, label), 12, benchThreads)
		})
	}
}

// BenchmarkFig3fDynamics — exact 12-term evaluation with the recall
// probe attached (Figures 3f–3g's measurement loop).
func BenchmarkFig3fDynamics(b *testing.B) {
	for _, label := range []string{"Sparta-exact", "pRA-exact", "pBMW-exact", "pJASS-exact"} {
		b.Run(label, func(b *testing.B) {
			env := benchEnv(b)
			v := variantByLabel(b, label)
			qs := env.Sets.Length(12)
			env.FlushAndReset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				probe := topk.NewRecallProbe(env.Exact(q))
				opts := v.Opts
				opts.Threads = benchThreads
				opts.Probe = probe
				if _, _, err := bench.MakeAlgorithm(v.ID, env.Disk).Search(q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3hThreads — 12-term latency at 1, 4, and 12 worker
// threads (Figures 3h–3i's measurement).
func BenchmarkFig3hThreads(b *testing.B) {
	for _, th := range []int{1, 4, 12} {
		for _, label := range []string{"Sparta-high", "pBMW-high", "pJASS-high"} {
			b.Run(fmt.Sprintf("t=%d/%s", th, label), func(b *testing.B) {
				runQueryBench(b, variantByLabel(b, label), 12, th)
			})
		}
	}
}

// BenchmarkFig4Throughput — queries/second on the voice mix over a
// shared pool (Table 4 / Figure 4's measurement). qps is reported as
// a metric; each iteration is one full stream.
func BenchmarkFig4Throughput(b *testing.B) {
	for _, label := range []string{"Sparta-high", "pRA-high", "pBMW-high", "pJASS-high"} {
		b.Run(label, func(b *testing.B) {
			env := benchEnv(b)
			v := variantByLabel(b, label)
			stream := env.Sets.VoiceMix(50, 123)
			env.FlushAndReset()
			var qps float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := sched.Run(bench.MakeAlgorithm(v.ID, env.Disk), stream, benchThreads, v.Opts)
				if res.Errors > 0 {
					b.Fatalf("%d failed queries", res.Errors)
				}
				qps += res.QPS
			}
			b.StopTimer()
			b.ReportMetric(qps/float64(b.N), "qps")
		})
	}
}

// runSpartaConfigBench measures Sparta under an ablation Config. Besides
// the work counters it reports the simulated disk's reader round trips
// (views/op) and the real sleeps that paid its charges (sleeps/op):
// each sleep lasts its timer's granularity at least, whatever it pays.
func runSpartaConfigBench(b *testing.B, cfg core.Config, opts topk.Options) {
	env := benchEnv(b)
	qs := env.Sets.Length(12)
	env.FlushAndReset()
	opts.K = benchK
	opts.Threads = benchThreads
	var postings, peak, cleanings int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		alg := core.NewWithConfig(env.Disk, cfg)
		_, st, err := alg.Search(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		postings += st.Postings
		peak += st.CandidatesPeak
		cleanings += st.Cleanings
	}
	b.StopTimer()
	io := env.Disk.Store().Snapshot()
	n := float64(b.N)
	b.ReportMetric(float64(postings)/n, "postings/op")
	b.ReportMetric(float64(peak)/n, "peak/op")
	b.ReportMetric(float64(cleanings)/n, "cleanings/op")
	b.ReportMetric(float64(io.ViewCalls)/n, "views/op")
	b.ReportMetric(float64(io.Sleeps)/n, "sleeps/op")
}

// BenchmarkAblationUBDeferred — deferred (paper) vs per-posting UB
// publication (§4.3).
func BenchmarkAblationUBDeferred(b *testing.B) {
	b.Run("deferred", func(b *testing.B) {
		runSpartaConfigBench(b, core.Config{}, topk.Options{Delta: 5 * time.Millisecond})
	})
	b.Run("every-posting", func(b *testing.B) {
		runSpartaConfigBench(b, core.Config{UBEveryPosting: true}, topk.Options{Delta: 5 * time.Millisecond})
	})
}

// BenchmarkAblationCleaner — background cleaning on vs off (§4.2).
// Exact mode: without cleaning the safe stop degrades to exhaustion.
func BenchmarkAblationCleaner(b *testing.B) {
	b.Run("shrinking", func(b *testing.B) {
		runSpartaConfigBench(b, core.Config{}, topk.Options{Exact: true})
	})
	b.Run("no-shrink", func(b *testing.B) {
		runSpartaConfigBench(b, core.Config{NoCleanerShrink: true}, topk.Options{Exact: true})
	})
}

// BenchmarkAblationTermMap — per-term local replicas on (Φ=10K) vs off
// (Φ=1: a cleaned map holds at least the heap, so none activates) (§4.3).
func BenchmarkAblationTermMap(b *testing.B) {
	b.Run("phi=10000", func(b *testing.B) {
		runSpartaConfigBench(b, core.Config{Phi: 10_000}, topk.Options{Exact: true})
	})
	b.Run("phi=off", func(b *testing.B) {
		runSpartaConfigBench(b, core.Config{Phi: 1}, topk.Options{Exact: true})
	})
}

// BenchmarkAblationLockGranularity — striped vs single-lock docMap
// (§4.3's bucket-granular locking claim).
func BenchmarkAblationLockGranularity(b *testing.B) {
	b.Run("striped", func(b *testing.B) {
		runSpartaConfigBench(b, core.Config{}, topk.Options{Exact: true})
	})
	b.Run("global-lock", func(b *testing.B) {
		runSpartaConfigBench(b, core.Config{SingleLockMap: true}, topk.Options{Exact: true})
	})
}

// BenchmarkAblationSegSize — segment-size sensitivity (§4.2: larger
// segments amortize scheduling, smaller ones tighten bounds). Sparta's
// segments start at one block whatever SegSize is, so this sweeps the
// cap they double up to (DESIGN.md §4a deviation 10).
func BenchmarkAblationSegSize(b *testing.B) {
	for _, seg := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("seg=%d", seg), func(b *testing.B) {
			runSpartaConfigBench(b, core.Config{}, topk.Options{Exact: true, SegSize: seg})
		})
	}
}

// --- Extension benchmarks -------------------------------------------------

// BenchmarkCompressionImpact checks, within the reproduction, the claim
// the paper relies on when it abstracts compression away (§5): that
// decompression's end-to-end impact is marginal. The same high-recall
// Sparta queries run over one on-disk index built with codec.Raw and
// with codec.Group — the codec is the only thing that differs between
// the two sub-benchmarks; compare their ns/op, and see the size ratio
// metric.
func BenchmarkCompressionImpact(b *testing.B) {
	env := benchEnv(b)
	ci, err := cindex.FromIndex(env.Mem, 12, iomodel.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	opts := topk.Options{K: benchK, Threads: benchThreads, Delta: 5 * time.Millisecond}
	qs := env.Sets.Length(12)
	b.Run("uncompressed", func(b *testing.B) {
		env.FlushAndReset()
		alg := core.New(env.Disk)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := alg.Search(qs[i%len(qs)], opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compressed", func(b *testing.B) {
		ci.Store().Flush()
		alg := core.New(ci)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := alg.Search(qs[i%len(qs)], opts); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ci.RawBytes())/float64(ci.CompressedBytes()), "size-ratio")
	})
}

// BenchmarkSpartaProb sweeps the probabilistic-pruning extension's ε
// (§6 future work): larger ε prunes more aggressively, trading recall
// for work.
func BenchmarkSpartaProb(b *testing.B) {
	for _, eps := range []float64{0, 0.01, 0.05, 0.2} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			env := benchEnv(b)
			qs := env.Sets.Length(12)
			env.FlushAndReset()
			var postings int64
			var recall float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				alg := core.NewWithConfig(env.Disk, core.Config{ProbEpsilon: eps})
				res, st, err := alg.Search(q, topk.Options{K: benchK, Threads: benchThreads, Exact: true})
				if err != nil {
					b.Fatal(err)
				}
				postings += st.Postings
				recall += model.Recall(env.Exact(q), res)
			}
			b.StopTimer()
			b.ReportMetric(float64(postings)/float64(b.N), "postings/op")
			b.ReportMetric(recall/float64(b.N), "recall")
		})
	}
}

// BenchmarkAdaptiveSched compares fixed intra-query parallelism against
// the predictive scheme of Jeon et al. (§6) on the voice mix.
func BenchmarkAdaptiveSched(b *testing.B) {
	env := benchEnv(b)
	stream := env.Sets.VoiceMix(50, 321)
	opts := topk.Options{K: benchK, Delta: 5 * time.Millisecond}
	b.Run("fixed", func(b *testing.B) {
		env.FlushAndReset()
		var qps float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := sched.Run(core.New(env.Disk), stream, benchThreads, opts)
			qps += res.QPS
		}
		b.StopTimer()
		b.ReportMetric(qps/float64(b.N), "qps")
	})
	b.Run("adaptive", func(b *testing.B) {
		env.FlushAndReset()
		pred := sched.DFPredictor(env.Disk)
		var qps float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := sched.RunAdaptive(core.New(env.Disk), stream, benchThreads, opts, pred, 20_000)
			qps += res.QPS
		}
		b.StopTimer()
		b.ReportMetric(qps/float64(b.N), "qps")
	})
}
