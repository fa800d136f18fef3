// Command queryrun evaluates a single query against a pre-built index
// directory with any of the repository's algorithms and prints the
// results plus run statistics — a debugging/inspection tool.
//
// Usage:
//
//	queryrun -index data/cw/index -algo Sparta -terms 12,733,5021 -k 10
//	queryrun -index data/cw/index -algo pBMW -mode low -terms 1,2,3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"sparta"
	"sparta/internal/bench"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/queries"
	"sparta/internal/topk"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("queryrun: ")

	var (
		indexDir = flag.String("index", "", "index directory (required)")
		algo     = flag.String("algo", "Sparta", fmt.Sprintf("algorithm: %v", bench.AllAlgos))
		terms    = flag.String("terms", "", "comma-separated term ids")
		qfile    = flag.String("queryfile", "", "queries.tsv from corpusgen (alternative to -terms)")
		qlen     = flag.Int("qlen", 12, "query length to pick from -queryfile")
		qidx     = flag.Int("qidx", 0, "query index within the length pool")
		k        = flag.Int("k", 10, "retrieval depth")
		threads  = flag.Int("threads", 0, "worker threads (default: term count)")
		mode     = flag.String("mode", "exact", "exact | high | low")
		delta    = flag.Duration("delta", 5*time.Millisecond, "TA-family Δ for approximate modes")
		ram      = flag.Bool("ram", false, "RAM-resident index (no simulated I/O)")
		timeout  = flag.Duration("timeout", 0, "query timeout (0 = none); on expiry the partial top-k is printed with stop reason \"deadline\"")
	)
	flag.Parse()
	if *indexDir == "" || (*terms == "" && *qfile == "") {
		flag.Usage()
		os.Exit(2)
	}

	var q model.Query
	if *terms != "" {
		for _, part := range strings.Split(*terms, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("bad term id %q: %v", part, err)
			}
			q = append(q, model.TermID(id))
		}
	} else {
		f, err := os.Open(*qfile)
		if err != nil {
			log.Fatal(err)
		}
		sets, err := queries.ReadTSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if *qlen < 1 || *qlen > sets.MaxLen() {
			log.Fatalf("qlen %d out of range 1..%d", *qlen, sets.MaxLen())
		}
		pool := sets.Length(*qlen)
		if *qidx < 0 || *qidx >= len(pool) {
			log.Fatalf("qidx %d out of range 0..%d", *qidx, len(pool)-1)
		}
		q = pool[*qidx]
	}
	if *threads == 0 {
		*threads = len(q)
	}

	cfg := iomodel.DefaultConfig()
	if *ram {
		cfg = iomodel.RAMConfig()
	}
	idx, err := diskindex.OpenDir(*indexDir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range q {
		if int(t) >= idx.NumTerms() {
			log.Fatalf("term %d out of range (%d terms)", t, idx.NumTerms())
		}
	}

	if !slices.Contains(bench.AllAlgos, bench.AlgoID(*algo)) {
		log.Fatalf("unknown algorithm %q (want one of %v)", *algo, bench.AllAlgos)
	}
	alg := bench.MakeAlgorithm(bench.AlgoID(*algo), idx)
	opts := topk.Options{K: *k, Threads: *threads}
	switch *mode {
	case "exact":
		opts.Exact = true
	case "high":
		opts.Delta = *delta
		opts.BoostF = 1.3
		opts.FracP = 0.20
	case "low":
		opts.Delta = *delta / 2
		opts.BoostF = 2.5
		opts.FracP = 0.05
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	idx.Store().Flush()
	idx.Store().ResetStats()
	searcher := sparta.NewSearcher(alg, sparta.SearcherConfig{Timeout: *timeout})
	res, st, err := searcher.SearchContext(context.Background(), q, opts)
	if err != nil {
		log.Fatalf("%s failed: %v", alg.Name(), err)
	}
	io := idx.Store().Snapshot()

	fmt.Printf("%s %s on %s: %d results in %v (stop: %s)\n",
		alg.Name(), *mode, q, len(res), st.Duration.Round(time.Microsecond), st.StopReason)
	fmt.Printf("work: %d postings, %d random accesses, %d heap inserts, %d candidates peak\n",
		st.Postings, st.RandomAccesses, st.HeapInserts, st.CandidatesPeak)
	fmt.Printf("io: %d blocks read (%d seq, %d rand), %d cache hits, %v simulated\n",
		io.BlocksRead, io.SeqReads, io.RandReads, io.CacheHits, io.SimulatedIO.Round(time.Microsecond))
	for i, r := range res {
		if i >= 20 {
			fmt.Printf("... (%d more)\n", len(res)-20)
			break
		}
		fmt.Printf("%3d. doc %-8d score %d (%.4f)\n", i+1, r.Doc, r.Score, r.Score.Float())
	}
}
