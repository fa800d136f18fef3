// Command shardbuild pre-builds a sharded on-disk index of a corpus
// directory created by corpusgen — the offline half of the
// scatter/gather serving layer. The global index is built once, then
// partitioned into P document-range shards whose posting lists keep
// their global document ids and global tf-idf scores (so sharded
// retrieval stays byte-equivalent to the single-index reference), and
// each shard is written as its own diskindex directory next to a
// shards.json manifest that OpenShardDir consumes.
//
// Usage:
//
//	shardbuild -corpus data/cw -p 4 -out data/cw/shards
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"path/filepath"
	"time"

	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/shardserve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shardbuild: ")

	var (
		corpusDir = flag.String("corpus", "", "corpus directory containing corpus.json (required)")
		out       = flag.String("out", "", "shard-set output directory (default <corpus>/shards)")
		p         = flag.Int("p", 4, "number of document-range shards")
	)
	flag.Parse()
	if *corpusDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *p <= 0 {
		log.Fatalf("-p must be positive, got %d", *p)
	}
	if *out == "" {
		*out = filepath.Join(*corpusDir, "shards")
	}

	raw, err := os.ReadFile(filepath.Join(*corpusDir, "corpus.json"))
	if err != nil {
		log.Fatal(err)
	}
	var spec corpus.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		log.Fatalf("parsing corpus.json: %v", err)
	}

	log.Printf("indexing %s (%d docs)...", spec.Name, spec.Docs)
	start := time.Now()
	x := index.FromCorpus(corpus.New(spec))
	log.Printf("built global index: %d terms, %d postings (%v)",
		x.NumTerms(), x.TotalPostings(), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	if err := shardserve.WriteDir(x, *p, 0, *out); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d shards) in %v", *out, *p, time.Since(start).Round(time.Millisecond))
}
