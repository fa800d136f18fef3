// Command calibrate prints the measured price of a resident lookup in
// phase-2 postings, then sweeps the approximation knobs (Δ, f, p) of
// every algorithm on long queries and prints mean/P95 latency, recall,
// traversed postings, the candidate-map peak, score lookups (random
// accesses), random block reads on the simulated disk and the share of
// safe stops per configuration; then Sparta's segment cap, on RAM and
// on the simulated disk.
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
	"sparta/internal/cmap"
	"sparta/internal/core"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
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
	ram, err := cindex.FromIndex(env.Mem, env.Opts.Shards, iomodel.RAMConfig())
	if err != nil {
		log.Fatal(err)
	}
	lookupPrice(ram, env, qs)

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
		randReads := float64(env.Disk.Store().Snapshot().RandReads) / float64(len(qs))
		fmt.Printf("%-18s mean=%8.2fms p95=%8.2fms recall=%5.1f%% postings=%9.0f peak=%8.0f lookups=%7.1f randreads=%7.1f safe=%5.1f%%\n",
			label, lat.Mean(), lat.Percentile(95), rec.Mean()*100, post.Mean(), peak.Mean(), look.Mean(), randReads, 100*float64(safe)/float64(len(qs)))
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
	if err := segmentSweep(env, ram, qs, *k); err != nil {
		log.Fatal(err)
	}
}

// Where lookupPrice reads each list: its phase 1 ends after
// phase1Depth postings and its phase 2 reads phase2Depth more — about
// what a 12-term ram_long query reads per list before UBStop (≈ 100)
// and after it (100–330, TestSpartaPhase2Price).
const phase1Depth, phase2Depth = 128, 256

// lookupPrice prints the evidence for core.ResidentLookupPostings, on a
// RAM-resident copy of the index (the group codec, as the benchmark's
// ram_long) at one thread: what a lookup costs — topk.CompleteScores
// completing each query's exact answer from no score at all, one doc
// cursor per term — and what a phase-2 posting costs: one score-cursor
// step, one probe of the candidate map phase 1 built, and the score set
// when the probe finds one, which is what a worker does with a posting
// once UBStop has latched. Their ratio is the most a resident lookup is
// worth in postings: a longer phase 2 also schedules and publishes more
// segments and runs more cleaner passes, which the posting side leaves
// out. The first of two passes warms the caches and is not reported.
func lookupPrice(ram *diskindex.Index, env *bench.Env, qs []model.Query) {
	var lookNs, lookups, postNs, posts int64
	for pass := 0; pass < 2; pass++ {
		lookNs, lookups, postNs, posts = 0, 0, 0, 0
		for _, q := range qs {
			members := make([]*cmap.DocState, 0, len(q))
			for _, r := range env.Exact(q) {
				members = append(members, cmap.NewDocState(r.Doc, len(q)))
			}
			ubs := topk.NewUpperBounds(topk.TermMaxima(ram, q))
			t0 := time.Now()
			n := topk.CompleteScores(ram, q, ubs, members, 1)
			lookNs += int64(time.Since(t0))
			lookups += n
			cands := cmap.New(0)
			cursors := make([]postings.ScoreCursor, len(q))
			for i, t := range q {
				cursors[i] = ram.ScoreCursor(t)
				for j := 0; j < phase1Depth && cursors[i].Next(); j++ {
					d, _ := cands.GetOrCreate(cursors[i].Doc(), func() *cmap.DocState { return cmap.NewDocState(cursors[i].Doc(), len(q)) })
					d.SetScore(i, cursors[i].Score())
				}
			}
			t0 = time.Now()
			for i, c := range cursors {
				for j := 0; j < phase2Depth && c.Next(); j++ {
					posts++
					if d := cands.Get(c.Doc()); d != nil {
						d.SetScore(i, c.Score())
					}
				}
			}
			postNs += int64(time.Since(t0))
		}
	}
	perLookup, perPosting := float64(lookNs)/float64(lookups), float64(postNs)/float64(posts)
	fmt.Printf("lookup price: ram threads=1 lookup=%.0fns (%d) phase-2 posting=%.0fns (%d) ratio=%.1f postings; core.ResidentLookupPostings=%d\n\n",
		perLookup, lookups, perPosting, posts, perLookup/perPosting, core.ResidentLookupPostings)
}

// segmentSweep prints ROADMAP item 1's table: Sparta-exact with the
// segment cap swept, on a RAM-resident copy of the index (the group
// codec, as the benchmark's ram_long) and on the simulated disk, at 1, 2
// and 12 threads. Sparta's segments start at one block whatever the
// cap, in either phase, so the cap is how far they double. Per query:
// mean latency, postings, candidate peak, cleaner passes, score lookups
// (an exact answer's completion, and the lookups that end phase 2 when
// they are cheaper than a round of segments), random block reads (on
// the RAM store, which charges nothing, 0), reader round trips (views)
// and real sleeps that paid simulated I/O, and recall.
func segmentSweep(env *bench.Env, ram *diskindex.Index, qs []model.Query, k int) error {
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
				fmt.Printf("%-4s threads=%-2d cap=%-4d ms=%7.2f postings=%7.0f peak=%6.0f cleanings=%6.1f lookups=%5.1f randreads=%6.1f views=%6.0f sleeps=%5.1f recall=%5.1f%%\n",
					store.name, threads, seg, lat.Mean(), post.Mean(), peak.Mean(), clean.Mean(), look.Mean(),
					float64(io.RandReads)/n, float64(io.ViewCalls)/n, float64(io.Sleeps)/n, rec.Mean()*100)
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
