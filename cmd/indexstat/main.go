// Command indexstat inspects a built index directory: corpus-level
// statistics, posting-list length distribution, score skew, the block
// codec the index was written with and the compression it measures (or,
// for an uncompressed index, the compression the group codec would
// achieve) — the numbers one looks at when judging whether a corpus can
// support score-order early stopping at all (see DESIGN.md on the
// document-quality prior). Uncompressed and compressed directories are
// one format and go through one code path.
//
// Usage:
//
//	indexstat -index data/cw/index
//	indexstat -index data/cw/index -term 42     # one term in detail
//	indexstat -index data/cw/shards -verify     # check manifest digests
//	indexstat -stats localhost:7070             # remote shardserver counters
//
// A live (segmented) index directory — one holding a live.json
// manifest — prints per-segment statistics instead: generation,
// document range, block count and byte size of every segment in the
// current epoch.
//
// Directories written in a retired format (the three-file uncompressed
// layout, the cmanifest.json compressed one) are refused with a rebuild
// hint.
//
// -verify recomputes every file's SHA-256 digest and the per-shard (or
// per-segment) Merkle root against the manifest and reports every
// mismatch — it works on sharded sets (shards.json) and live
// directories (live.json); single-index directories carry no digests.
//
// -stats dials a running cmd/shardserver and prints its counter
// snapshot (requests, cancels, bad frames, per-shard serving counters,
// settlement violations) as indented JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sparta/internal/codec"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/liveindex"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/shardrpc"
	"sparta/internal/shardserve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("indexstat: ")
	var (
		indexDir = flag.String("index", "", "index directory (required unless -stats)")
		termID   = flag.Int("term", -1, "inspect a single term id")
		verify   = flag.Bool("verify", false, "verify index files against their manifest digests")
		statsAt  = flag.String("stats", "", "dial a shardserver at this address and print its counters")
	)
	flag.Parse()
	if *statsAt != "" {
		remoteStats(*statsAt)
		return
	}
	if *indexDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *verify {
		runVerify(*indexDir)
		return
	}
	if _, err := os.Stat(filepath.Join(*indexDir, liveindex.ManifestFile)); err == nil {
		liveStats(*indexDir)
		return
	}

	idx, err := diskindex.OpenDir(*indexDir, iomodel.RAMConfig())
	if err != nil {
		log.Fatal(err)
	}

	if *termID >= 0 {
		inspectTerm(idx, model.TermID(*termID))
		return
	}

	m := idx.Manifest()
	fmt.Printf("docs: %d   terms: %d   postings: %d   shards: %d   codec: %s\n",
		m.NumDocs, m.NumTerms, m.TotalPostings, m.Shards, m.Codec)
	if stored := idx.CompressedBytes(); stored > 0 {
		fmt.Printf("postings region: %d bytes stored, %d uncompressed (%.2fx)\n",
			stored, idx.RawBytes(), float64(idx.RawBytes())/float64(stored))
	}

	// Posting-list length distribution.
	dfs := make([]int, 0, idx.NumTerms())
	var nonEmpty int
	for t := 0; t < idx.NumTerms(); t++ {
		df := idx.DF(model.TermID(t))
		if df > 0 {
			nonEmpty++
		}
		dfs = append(dfs, df)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dfs)))
	fmt.Printf("non-empty terms: %d\n", nonEmpty)
	fmt.Printf("df percentiles: max=%d p90=%d p50=%d p10=%d\n",
		dfs[0], dfs[len(dfs)/10], dfs[len(dfs)/2], dfs[len(dfs)*9/10])

	// Score skew of the longest lists: the ratio between the head and
	// the tail of the impact order decides early-stopping power.
	fmt.Printf("impact skew (head/p50 score) of the 5 longest lists:\n")
	type tl struct {
		t  model.TermID
		df int
	}
	var longest []tl
	for t := 0; t < idx.NumTerms(); t++ {
		longest = append(longest, tl{model.TermID(t), idx.DF(model.TermID(t))})
	}
	sort.Slice(longest, func(i, j int) bool { return longest[i].df > longest[j].df })
	for i := 0; i < 5 && i < len(longest); i++ {
		t := longest[i].t
		c := idx.ScoreCursor(t)
		var head, mid model.Score
		pos, target := 0, longest[i].df/2
		for c.Next() {
			if pos == 0 {
				head = c.Score()
			}
			if pos == target {
				mid = c.Score()
				break
			}
			pos++
		}
		ratio := 0.0
		if mid > 0 {
			ratio = float64(head) / float64(mid)
		}
		fmt.Printf("  term %-7d df=%-8d head=%-10d p50=%-10d skew=%.1fx\n",
			t, longest[i].df, head, mid, ratio)
	}

	// Per-term ratios over the longest lists, where block structure
	// dominates and the codec choice actually shows: what is stored, and
	// for an uncompressed index what the group codec would store.
	fmt.Printf("doc-ordered bytes of the 10 longest lists:\n")
	fmt.Printf("  %-8s %-9s %-13s %-11s %s\n", "term", "df", "uncompressed", "stored", "ratio")
	for i := 0; i < 10 && i < len(longest) && longest[i].df > 0; i++ {
		t := longest[i].t
		raw := int64(longest[i].df) * codec.RawPostingBytes
		stored := idx.TermCompressedBytes(t)
		fmt.Printf("  %-8d %-9d %-13d %-11d %.2fx\n", t, longest[i].df, raw, stored, float64(raw)/float64(stored))
	}
	if m.Codec == codec.Raw {
		var raw, comp int64
		for i := 0; i < 50 && i < len(longest); i++ {
			list := readDocList(idx, longest[i].t)
			raw += int64(len(list)) * codec.RawPostingBytes
			base := model.DocID(0)
			for start := 0; start < len(list); start += postings.BlockSize {
				block := list[start:min(start+postings.BlockSize, len(list))]
				buf, err := codec.EncodeDoc(codec.Group, base, block)
				if err != nil {
					log.Fatal(err)
				}
				comp += int64(len(buf))
				base = block[len(block)-1].Doc
			}
		}
		if comp > 0 {
			fmt.Printf("group-codec compression over the 50 longest lists: %.2fx\n",
				float64(raw)/float64(comp))
		}
	}
}

// runVerify recomputes manifest digests for a sharded set or a live
// directory and prints a per-file mismatch report. Exit status 1 on
// any disagreement.
func runVerify(dir string) {
	var (
		kind string
		err  error
	)
	switch {
	case statOK(filepath.Join(dir, liveindex.ManifestFile)):
		kind, err = "live index", liveindex.VerifyDir(dir)
	case statOK(filepath.Join(dir, shardserve.ManifestFile)):
		kind = "shard set"
		if m, merr := shardserve.ReadManifest(dir); merr == nil {
			kind = fmt.Sprintf("shard set (%d shards)", len(m.Shards))
		}
		err = shardserve.VerifySet(dir)
	default:
		log.Fatalf("%s: no %s or %s manifest — only sharded sets and live directories carry digests",
			dir, shardserve.ManifestFile, liveindex.ManifestFile)
	}
	if err != nil {
		fmt.Printf("%s: %s FAILED verification:\n", dir, kind)
		for _, line := range strings.Split(err.Error(), "\n") {
			fmt.Printf("  %s\n", line)
		}
		os.Exit(1)
	}
	fmt.Printf("%s: %s verified OK — every file matches its manifest digest\n", dir, kind)
}

func statOK(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// remoteStats fetches and prints a running shardserver's counter
// snapshot over its stats RPC.
func remoteStats(addr string) {
	cl := shardrpc.NewClient(addr, shardrpc.Config{})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := cl.ServerStats(ctx)
	if err != nil {
		log.Fatalf("%s: %v", addr, err)
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// liveStats prints the per-segment breakdown of a segmented live
// index directory.
func liveStats(dir string) {
	ramCfg := iomodel.RAMConfig()
	l, err := liveindex.Open(dir, liveindex.Config{IO: &ramCfg, DisableCompaction: true})
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()

	fmt.Printf("live index: docs=%d terms=%d wal=%dB\n", l.NumDocs(), l.NumTerms(), l.WALBytes())
	stats := l.SegmentStats()
	fmt.Printf("segments: %d\n", len(stats))
	fmt.Printf("  %-9s %-5s %-12s %-8s %-8s %s\n", "kind", "gen", "docs", "blocks", "bytes", "range")
	for _, st := range stats {
		fmt.Printf("  %-9s %-5d %-12d %-8d %-8d [%d,%d)\n",
			st.Kind, st.Generation, st.Docs, st.Blocks, st.Bytes, st.Lo, st.Hi)
	}
}

func inspectTerm(idx *diskindex.Index, t model.TermID) {
	if int(t) >= idx.NumTerms() {
		log.Fatalf("term %d out of range (%d terms)", t, idx.NumTerms())
	}
	fmt.Printf("term %d: df=%d max-score=%d\n", t, idx.DF(t), idx.MaxScore(t))
	c := idx.ScoreCursor(t)
	fmt.Printf("impact head:")
	for i := 0; i < 10 && c.Next(); i++ {
		fmt.Printf(" (%d,%d)", c.Doc(), c.Score())
	}
	fmt.Println()
}

func readDocList(idx *diskindex.Index, t model.TermID) []model.Posting {
	c := idx.DocCursor(t)
	out := make([]model.Posting, 0, idx.DF(t))
	for c.Next() {
		out = append(out, model.Posting{Doc: c.Doc(), Score: c.Score()})
	}
	return out
}
