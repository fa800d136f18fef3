// Voicesearch: sustained throughput under the production voice-query
// workload (§5.3's Table 4 scenario).
//
// Voice interfaces produce long queries — mean 4.2 terms, more than 5%
// with 10+ terms. This example streams such a mix through a shared
// worker pool with first-come-first-served scheduling and compares the
// throughput of Sparta and pBMW in their high-recall configurations.
//
//	go run ./examples/voicesearch
package main

import (
	"fmt"
	"log"
	"time"

	"sparta/internal/algos/bmw"
	"sparta/internal/core"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/queries"
	"sparta/internal/sched"
	"sparta/internal/topk"
)

func main() {
	spec := corpus.Spec{
		Name: "web", Docs: 8_000, Vocab: 20_000, ZipfS: 1.0,
		MeanDocLen: 100, MinDocLen: 8, Seed: 11,
	}
	fmt.Printf("building %d-doc index...\n", spec.Docs)
	mem := index.FromCorpus(corpus.New(spec))
	disk, err := diskindex.FromIndex(mem, iomodel.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 200 queries drawn from the voice length distribution.
	sets := queries.Generate(mem, queries.MaxLen, 20, 3)
	stream := sets.VoiceMix(200, 17)
	histo := make(map[int]int)
	for _, q := range stream {
		histo[len(q)]++
	}
	fmt.Printf("query mix: %d queries, lengths 1..12 (10+ terms: %d)\n\n",
		len(stream), histo[10]+histo[11]+histo[12])

	const pool = 12
	runs := []struct {
		alg  topk.Algorithm
		opts topk.Options
	}{
		{core.New(disk), topk.Options{K: 100, Delta: 5 * time.Millisecond}},
		{bmw.NewPBMW(disk), topk.Options{K: 100, BoostF: 1.3}},
	}
	fmt.Printf("%-8s %10s %12s %12s %8s\n", "algo", "qps", "mean ms", "p95 ms", "errors")
	for _, r := range runs {
		disk.Store().Flush()
		res := sched.Run(r.alg, stream, pool, r.opts)
		fmt.Printf("%-8s %10.1f %12.2f %12.2f %8d\n",
			r.alg.Name(), res.QPS, res.Latency.Mean(), res.Latency.Percentile(95), res.Errors)
	}
	fmt.Printf("\n(shared %d-thread pool, FCFS admission; see cmd/experiments table4\n"+
		" for the full paper reproduction)\n", pool)
}
