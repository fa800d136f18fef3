// Command calibrate sweeps the approximation knobs (Δ, f, p) of every
// algorithm on long queries and prints mean/P95 latency, recall,
// traversed postings, the candidate-map peak, score lookups (random
// accesses) and the share of safe stops per configuration; then Sparta's
// segment cap, on RAM and on the simulated disk.
//
// This is how the reproduction's DefaultTuning values were chosen (and
// how to re-derive them after changing corpus parameters): pick, for
// each algorithm, the knob whose recall lands in the paper's "high"
// (≥96%) and "low" (~80–93%) bands, then compare latencies — exactly
// the methodology of the paper's §5.3.
//
// Usage:
//
//	calibrate                 # CW scale (50K docs), k=10
//	calibrate -scale 10       # CWX10
//	calibrate -k 100 -docs 20000
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"sparta/internal/bench"
	"sparta/internal/cindex"
	"sparta/internal/core"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/stats"
	"sparta/internal/topk"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	var (
		k       = flag.Int("k", 10, "retrieval depth")
		docs    = flag.Int("docs", 50_000, "base corpus documents")
		scale   = flag.Int("scale", 1, "corpus scale factor")
		nq      = flag.Int("queries", 10, "queries per configuration")
		threads = flag.Int("threads", 12, "worker threads")
		mlen    = flag.Int("m", 12, "query length")
	)
	flag.Parse()

	spec := corpus.DefaultSpec()
	spec.Docs = *docs
	if *scale > 1 {
		spec = corpus.ScaledSpec(spec, *scale)
	}
	t0 := time.Now()
	env, err := bench.NewEnv(spec, iomodel.DefaultConfig(),
		bench.EnvOptions{K: *k, QueriesPerLength: maxInt(*nq, 10), MemBudgetEntries: -1})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s built in %v", env.Describe(), time.Since(t0).Round(time.Millisecond))
	qs := env.Sets.Length(*mlen)[:*nq]

	run := func(label string, id bench.AlgoID, opts topk.Options) {
		var lat, rec, post, peak, look stats.Sample
		safe := 0
		env.FlushAndReset()
		for _, q := range qs {
			opts.K = *k
			opts.Threads = *threads
			res, st, err := bench.MakeAlgorithm(id, env.Disk).Search(q, opts)
			if err != nil {
				fmt.Printf("%-18s ERR %v\n", label, err)
				return
			}
			lat.AddDuration(st.Duration)
			rec.Add(model.Recall(env.Exact(q), res))
			post.Add(float64(st.Postings))
			peak.Add(float64(st.CandidatesPeak))
			look.Add(float64(st.RandomAccesses))
			if st.StopReason == "safe" {
				safe++
			}
		}
		fmt.Printf("%-18s mean=%8.2fms p95=%8.2fms recall=%5.1f%% postings=%9.0f peak=%8.0f lookups=%7.1f safe=%5.1f%%\n",
			label, lat.Mean(), lat.Percentile(95), rec.Mean()*100, post.Mean(), peak.Mean(), look.Mean(), 100*float64(safe)/float64(len(qs)))
	}

	run("Sparta-exact", bench.AlgoSparta, topk.Options{Exact: true})
	run("pRA-exact", bench.AlgoPRA, topk.Options{Exact: true})
	run("pNRA-exact", bench.AlgoPNRA, topk.Options{Exact: true})
	run("sNRA-exact", bench.AlgoSNRA, topk.Options{Exact: true})
	run("pBMW-exact", bench.AlgoPBMW, topk.Options{Exact: true})
	run("pJASS-exact", bench.AlgoPJASS, topk.Options{Exact: true})
	for _, d := range []time.Duration{2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
		run(fmt.Sprintf("Sparta d=%v", d), bench.AlgoSparta, topk.Options{Delta: d})
	}
	for _, d := range []time.Duration{2 * time.Millisecond, 5 * time.Millisecond} {
		run(fmt.Sprintf("pRA d=%v", d), bench.AlgoPRA, topk.Options{Delta: d})
		run(fmt.Sprintf("pNRA d=%v", d), bench.AlgoPNRA, topk.Options{Delta: d})
		run(fmt.Sprintf("sNRA d=%v", d), bench.AlgoSNRA, topk.Options{Delta: d})
	}
	for _, f := range []float64{1.5, 2, 4, 8, 16} {
		run(fmt.Sprintf("pBMW f=%v", f), bench.AlgoPBMW, topk.Options{BoostF: f})
	}
	for _, p := range []float64{0.01, 0.03, 0.1, 0.3} {
		run(fmt.Sprintf("pJASS p=%v", p), bench.AlgoPJASS, topk.Options{FracP: p})
	}
	if err := segmentSweep(env, qs, *k); err != nil {
		log.Fatal(err)
	}
}

// segmentSweep prints ROADMAP item 1's table: Sparta-exact with the
// segment cap swept, on a RAM-resident copy of the index (the group
// codec, as the benchmark's ram_long) and on the simulated disk, at 1, 2
// and 12 threads. Sparta's segments start at one block whatever the
// cap, in either phase, so the cap is how far they double. Per query:
// mean latency, postings, candidate peak, cleaner passes, score lookups
// (an exact answer's completion, and the lookups that end phase 2 when
// they are cheaper than a round of segments), reader round trips
// (views) and real sleeps that paid simulated I/O, and recall.
func segmentSweep(env *bench.Env, qs []model.Query, k int) error {
	ram, err := cindex.FromIndex(env.Mem, env.Opts.Shards, iomodel.RAMConfig())
	if err != nil {
		return err
	}
	fmt.Printf("\nsegment cap: Sparta-exact, %d queries per row\n", len(qs))
	for _, store := range []struct {
		name string
		view *diskindex.Index
	}{{"ram", ram}, {"disk", env.Disk}} {
		for _, threads := range []int{1, 2, 12} {
			for _, seg := range []int{64, 128, 256, 512, 1024, 4096} {
				store.view.Store().Flush()
				store.view.Store().ResetStats()
				var lat, post, peak, clean, look, rec stats.Sample
				alg := core.New(store.view)
				for _, q := range qs {
					res, st, err := alg.Search(q, topk.Options{K: k, Exact: true, Threads: threads, SegSize: seg})
					if err != nil {
						return err
					}
					lat.AddDuration(st.Duration)
					post.Add(float64(st.Postings))
					peak.Add(float64(st.CandidatesPeak))
					clean.Add(float64(st.Cleanings))
					look.Add(float64(st.RandomAccesses))
					rec.Add(model.Recall(env.Exact(q), res))
				}
				io, n := store.view.Store().Snapshot(), float64(len(qs))
				fmt.Printf("%-4s threads=%-2d cap=%-4d ms=%7.2f postings=%7.0f peak=%6.0f cleanings=%6.1f lookups=%5.1f views=%6.0f sleeps=%5.1f recall=%5.1f%%\n",
					store.name, threads, seg, lat.Mean(), post.Mean(), peak.Mean(), clean.Mean(), look.Mean(),
					float64(io.ViewCalls)/n, float64(io.Sleeps)/n, rec.Mean()*100)
			}
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
