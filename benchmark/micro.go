package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sparta/internal/algos/bmw"
	"sparta/internal/algos/jass"
	"sparta/internal/codec"
	"sparta/internal/core"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

const (
	// microPostings caps the postings a micro-timing touches per pass, so
	// the traced run stays inside the time a run may take.
	microPostings = 400_000
	// microSlice is how many pool queries the algorithm comparisons run.
	microSlice = 24
	// microMinTime is how long a decode loop repeats before it is read.
	microMinTime = 40 * time.Millisecond
	// replayQueries caps the sharded queries whose merge and resolve
	// steps are replayed.
	replayQueries = 200
)

// micro takes the measurements that are calls into one layer's public
// functions, not observations of the running workload: codec and
// cursor rates, store sizes, the baseline algorithms, and the replayed
// merge and resolve steps of sharded queries.
func (e *env) micro(r *running, once map[string]float64) error {
	terms := distinctTerms(r.gen.pool)
	postingsTotal := float64(e.mem.TotalPostings())
	if ci := r.st.cidx; ci != nil {
		once["cindex.bytes_per_posting"] = float64(ci.CompressedBytes()) / postingsTotal
		if err := e.codecMicro(ci.Codec(), terms, once); err != nil {
			return err
		}
		if ci.Store().Config().NoSleep {
			// Cursor rates are CPU rates only where no simulated I/O is
			// charged; the RAM-resident workload has such an index.
			cursorMicro(ci, terms, "cindex.", once)
			once["cindex.score_cursor_ns_per_posting"] = cursorRate(ci, terms, func(t model.TermID) scoreIter { return ci.ScoreCursor(t) })
			once["cindex.doc_cursor_ns_per_posting"] = cursorRate(ci, terms, func(t model.TermID) scoreIter { return ci.DocCursor(t) })
			if err := e.algoMicro(r, once); err != nil {
				return err
			}
		}
	}
	if len(r.st.servers) > 0 {
		var bytes int64
		for i := 0; i < wireShards; i++ {
			dir := filepath.Join(r.st.dir, fmt.Sprintf("shard-%04d", i))
			n, err := dirBytes(dir)
			if err != nil {
				return err
			}
			bytes += n
			if i == 0 {
				// The same files on a store that charges nothing.
				di, err := diskindex.OpenDir(dir, iomodel.RAMConfig())
				if err != nil {
					return fmt.Errorf("diskindex.OpenDir: %w", err)
				}
				cursorMicro(di, terms, "diskindex.", once)
			}
		}
		once["diskindex.bytes_per_posting"] = float64(bytes) / postingsTotal
		replayGather(r, once)
	}
	return nil
}

func distinctTerms(pool []model.Query) []model.TermID {
	seen := map[model.TermID]bool{}
	var out []model.TermID
	for _, q := range pool {
		for _, t := range q {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

type codecBlock struct {
	base  model.DocID // doc blocks
	ceil  model.Score // impact blocks
	block []model.Posting
	buf   []byte
}

// codecMicro times the codec's four entry points on 64-posting blocks
// cut from the workload's own terms, the way the compressed index cuts
// them.
func (e *env) codecMicro(id codec.ID, terms []model.TermID, once map[string]float64) error {
	var doc, imp []codecBlock
	n := 0
	for _, t := range terms {
		if n >= microPostings {
			break
		}
		base := model.DocID(0)
		for list := e.mem.Postings(t); len(list) > 0; {
			b := list[:min(postings.BlockSize, len(list))]
			list = list[len(b):]
			doc = append(doc, codecBlock{base: base, block: b})
			base = b[len(b)-1].Doc
			n += len(b)
		}
		ceil := e.mem.MaxScore(t)
		for list := e.mem.Impact(t); len(list) > 0; {
			b := list[:min(postings.BlockSize, len(list))]
			list = list[len(b):]
			imp = append(imp, codecBlock{ceil: ceil, block: b})
			ceil = b[len(b)-1].Score
		}
	}
	if n == 0 {
		return nil
	}

	var encoded int
	t0 := time.Now()
	for i := range doc {
		buf, err := codec.EncodeDoc(id, doc[i].base, doc[i].block)
		if err != nil {
			return fmt.Errorf("codec.EncodeDoc: %w", err)
		}
		doc[i].buf = buf
		encoded += len(buf)
	}
	once["codec.encode_doc_ns_per_posting"] = float64(time.Since(t0)) / float64(n)
	for i := range imp {
		buf, err := codec.EncodeImpact(id, imp[i].ceil, imp[i].block)
		if err != nil {
			return fmt.Errorf("codec.EncodeImpact: %w", err)
		}
		imp[i].buf = buf
		encoded += len(buf)
	}
	once["codec.ratio"] = float64(2*n*codec.RawPostingBytes) / float64(encoded)

	out := make([]model.Posting, 0, postings.BlockSize)
	var decErr error
	once["codec.decode_doc_ns_per_posting"] = repeatRate(n, func() {
		for i := range doc {
			if _, err := codec.DecodeDoc(id, doc[i].base, doc[i].buf, len(doc[i].block), out); err != nil {
				decErr = err
			}
		}
	})
	once["codec.decode_impact_ns_per_posting"] = repeatRate(n, func() {
		for i := range imp {
			if _, err := codec.DecodeImpact(id, imp[i].ceil, imp[i].buf, len(imp[i].block), out); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return fmt.Errorf("codec decode: %w", decErr)
	}
	return nil
}

// repeatRate runs pass, which handles n items, until microMinTime has
// gone by, and returns nanoseconds per item of the fastest pass.
func repeatRate(n int, pass func()) float64 {
	best := time.Duration(1 << 62)
	for start := time.Now(); time.Since(start) < microMinTime; {
		t0 := time.Now()
		pass()
		best = min(best, time.Since(t0))
	}
	return float64(best) / float64(n)
}

// walker is the read surface both block stores share.
type walker interface {
	postings.View
	postings.BlockWalker
}

func capTerms(v postings.View, terms []model.TermID) ([]model.TermID, int) {
	n := 0
	for i, t := range terms {
		if n >= microPostings {
			return terms[:i], n
		}
		n += v.DF(t)
	}
	return terms, n
}

// cursorMicro times a block walk over the workload's terms.
func cursorMicro(v walker, terms []model.TermID, prefix string, once map[string]float64) {
	terms, n := capTerms(v, terms)
	if n == 0 {
		return
	}
	ctx := context.Background()
	var sink model.Score
	once[prefix+"walk_ns_per_posting"] = repeatRate(n, func() {
		for _, t := range terms {
			v.WalkDocBlocks(ctx, t, false, func(_ int, post []model.Posting) bool {
				sink += post[len(post)-1].Score
				return true
			})
		}
	})
	_ = sink
}

// scoreIter is what a score-order and a doc-order cursor share.
type scoreIter interface {
	Next() bool
	Score() model.Score
}

// cursorRate times a full traversal of every term's list through the
// cursor open returns, in nanoseconds per posting.
func cursorRate(v postings.View, terms []model.TermID, open func(model.TermID) scoreIter) float64 {
	terms, n := capTerms(v, terms)
	if n == 0 {
		return 0
	}
	var sink model.Score
	rate := repeatRate(n, func() {
		for _, t := range terms {
			for c := open(t); c.Next(); {
				sink += c.Score()
			}
		}
	})
	_ = sink
	return rate
}

// algoMicro is the paper's headline comparison on a slice of the
// workload's pool: Sparta against the two strongest baselines, all
// exact, same view, two threads each; and Sparta against itself on one
// thread.
func (e *env) algoMicro(r *running, once map[string]float64) error {
	slice := r.gen.pool[:min(microSlice, len(r.gen.pool))]
	ci := r.st.cidx
	p50 := func(alg topk.Algorithm, opts topk.Options) (float64, error) {
		var lat []float64
		for pass := 0; pass < 2; pass++ { // the first pass warms the algorithm's pools
			lat = lat[:0]
			for _, q := range slice {
				t0 := time.Now()
				if _, _, err := alg.SearchContext(context.Background(), q, opts); err != nil {
					return 0, fmt.Errorf("%s: %w", alg.Name(), err)
				}
				lat = append(lat, ms(time.Since(t0)))
			}
		}
		return median(lat), nil
	}
	two, one := r.spec.opts, r.spec.opts
	two.Threads, one.Threads = 2, 1
	sparta, err := p50(core.New(ci), two)
	if err != nil {
		return err
	}
	pbmw, err := p50(bmw.NewPBMW(ci), two)
	if err != nil {
		return err
	}
	pjass, err := p50(jass.NewP(ci), two)
	if err != nil {
		return err
	}
	single, err := p50(core.New(ci), one)
	if err != nil {
		return err
	}
	once["algos.pbmw_exact_p50_ms"] = pbmw
	once["algos.pjass_exact_p50_ms"] = pjass
	once["algos.sparta_over_best_baseline"] = ratio(sparta, min(pbmw, pjass))
	once["core.thread_speedup"] = ratio(single, sparta)
	return nil
}

// replayGather re-runs, on what the client shims captured, the two
// steps of a sharded query that happen out of the benchmark's sight:
// the k-way merge of the per-shard lists, and the servers' exact
// resolution of the merged candidates.
func replayGather(r *running, once map[string]float64) {
	var merge, resolve []float64
	ctx := context.Background()
	for _, rd := range r.rounds {
		for _, rec := range rd.recs {
			if rec.tr == nil || len(rec.tr.shards) == 0 || len(merge) >= replayQueries {
				continue
			}
			parts := make([]model.TopK, len(rec.tr.shards))
			for _, c := range rec.tr.shards {
				parts[c.shard] = c.results
			}
			t0 := time.Now()
			merged := topk.MergeTopK(parts, retrievalK)
			merge = append(merge, us(time.Since(t0)))

			docs := make([]model.DocID, len(merged))
			for i, m := range merged {
				docs[i] = m.Doc
			}
			t0 = time.Now()
			for _, g := range r.st.groups {
				g.ResolveScores(ctx, r.gen.pool[rec.idx], docs)
			}
			resolve = append(resolve, us(time.Since(t0)))
		}
	}
	once["topk.merge_us_p50"] = median(merge)
	once["topk.resolve_us_p50"] = median(resolve)
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
