// Websearch: the paper's case study in miniature (§5).
//
// Generates a ClueWeb-like synthetic corpus, builds the on-disk index
// (read through the simulated SSD + page cache), and serves the same
// long query with Sparta, pBMW, and pJASS in approximate
// configurations — printing latency, recall against the exact answer,
// and the machine-independent work metrics.
//
//	go run ./examples/websearch
package main

import (
	"fmt"
	"log"
	"time"

	"sparta/internal/algos/bmw"
	"sparta/internal/algos/jass"
	"sparta/internal/core"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/queries"
	"sparta/internal/topk"
)

func main() {
	// A small slice of the web: 10K documents with Zipfian vocabulary.
	spec := corpus.Spec{
		Name: "web", Docs: 10_000, Vocab: 20_000, ZipfS: 1.0,
		MeanDocLen: 120, MinDocLen: 8, Seed: 42,
	}
	fmt.Printf("generating %s: %d docs...\n", spec.Name, spec.Docs)
	mem := index.FromCorpus(corpus.New(spec))

	// Disk-resident index behind a simulated SSD and page cache.
	disk, err := diskindex.FromIndex(mem, iomodel.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d postings on simulated disk\n\n", disk.Manifest().TotalPostings)

	// A 12-term query — the verbose "voice search" case the paper
	// motivates: state-of-the-art engines struggle at this length.
	sets := queries.Generate(mem, 12, 5, 7)
	q := sets.Length(12)[0]
	exact := topk.BruteForce(mem, q, 100)

	algos := []struct {
		alg  topk.Algorithm
		opts topk.Options
	}{
		{core.New(disk), topk.Options{K: 100, Threads: 12, Delta: 5 * time.Millisecond}},
		{bmw.NewPBMW(disk), topk.Options{K: 100, Threads: 12, BoostF: 1.3}},
		{jass.NewP(disk), topk.Options{K: 100, Threads: 12, FracP: 0.4}},
	}

	fmt.Printf("12-term query, k=100, 12 worker threads, approximate configurations:\n\n")
	fmt.Printf("%-8s %10s %9s %12s %12s\n", "algo", "latency", "recall", "postings", "io-blocks")
	for _, a := range algos {
		disk.Store().Flush() // cold page cache, as in the paper
		disk.Store().ResetStats()
		res, st, err := a.alg.Search(q, a.opts)
		if err != nil {
			log.Fatalf("%s: %v", a.alg.Name(), err)
		}
		io := disk.Store().Snapshot()
		fmt.Printf("%-8s %10v %8.1f%% %12d %12d\n",
			a.alg.Name(), st.Duration.Round(100*time.Microsecond),
			model.Recall(exact, res)*100, st.Postings, io.BlocksRead)
	}

	fmt.Printf("\n(run with different seeds/sizes to explore; see cmd/experiments\n" +
		" for the full evaluation that regenerates every table and figure)\n")
}
