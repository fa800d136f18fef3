// Command indexbuild pre-builds the on-disk index of a corpus
// directory created by corpusgen — the paper's offline index build
// (§5.1): uncompressed binary posting files in both document order and
// score order, block-max metadata, the RA secondary ordering, and the
// sNRA shard partition. -compressed also writes the same index with the
// group block codec to <out>-compressed: the same directory format,
// opened by the same tools, with another codec id in its manifest.
//
// Usage:
//
//	indexbuild -corpus data/cw -out data/cw/index
//
// With -live, the corpus is instead ingested through the segmented
// live-index path (WAL, memtable flushes at -live-flush documents,
// compaction) into a live directory that sparta.OpenLive and indexstat
// understand — the offline way to produce a segmented index. Live
// ingest indexes with a neutral
// document-quality prior.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"path/filepath"
	"time"

	"sparta/internal/codec"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/liveindex"
	"sparta/internal/model"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("indexbuild: ")

	var (
		corpusDir = flag.String("corpus", "", "corpus directory containing corpus.json (required)")
		out       = flag.String("out", "", "index output directory (default <corpus>/index)")
		shards    = flag.Int("shards", diskindex.DefaultShards, "sNRA document-id shards")
		comp      = flag.Bool("compressed", false, "also write the index with the group block codec to <out>-compressed")
		live      = flag.Bool("live", false, "ingest through the segmented live-index path instead of a one-shot build")
		liveFlush = flag.Int("live-flush", 4096, "live-index memtable flush threshold (documents)")
	)
	flag.Parse()
	if *corpusDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *out == "" {
		*out = filepath.Join(*corpusDir, "index")
	}

	raw, err := os.ReadFile(filepath.Join(*corpusDir, "corpus.json"))
	if err != nil {
		log.Fatal(err)
	}
	var spec corpus.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		log.Fatalf("parsing corpus.json: %v", err)
	}

	if *live {
		buildLive(spec, *out, *liveFlush)
		return
	}

	log.Printf("indexing %s (%d docs)...", spec.Name, spec.Docs)
	start := time.Now()
	x := index.FromCorpus(corpus.New(spec))
	log.Printf("built in-memory index: %d terms, %d postings (%v)",
		x.NumTerms(), x.TotalPostings(), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	if err := diskindex.WriteDir(x, *shards, *out); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d shards) in %v", *out, *shards, time.Since(start).Round(time.Millisecond))

	if *comp {
		cdir := *out + "-compressed"
		start = time.Now()
		if err := diskindex.WriteDirWith(x, *shards, cdir, codec.Group); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s in %v", cdir, time.Since(start).Round(time.Millisecond))
	}
}

// buildLive streams the corpus through the live-ingest path, leaving a
// segmented directory (manifest, frozen segments, empty WAL).
func buildLive(spec corpus.Spec, out string, flushDocs int) {
	c := corpus.New(spec)
	ramCfg := iomodel.RAMConfig()
	l, err := liveindex.Open(out, liveindex.Config{IO: &ramCfg, FlushDocs: flushDocs})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("live-ingesting %s (%d docs, flush every %d)...", spec.Name, spec.Docs, flushDocs)
	start := time.Now()
	for i := 0; i < spec.Docs; i++ {
		if _, err := l.AppendBag(c.Doc(model.DocID(i))); err != nil {
			log.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		log.Fatal(err)
	}
	for {
		merged, err := l.Compact()
		if err != nil {
			log.Fatal(err)
		}
		if !merged {
			break
		}
	}
	segs := len(l.SegmentStats())
	if err := l.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote live index %s: %d docs, %d segments (%v)",
		out, spec.Docs, segs, time.Since(start).Round(time.Millisecond))
}
