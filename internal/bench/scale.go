// The scale envelope: how the compressed read path holds up as the
// corpus grows 10x and 100x past the base reproduction scale. Each
// scale point is built, measured, and released before the next so the
// peak resident set is one corpus, not the sum — that is what lets the
// 5M-document stretch run on the same machine as the base grid.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sparta/internal/codec"
	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/queries"
	"sparta/internal/stats"
	"sparta/internal/topk"
)

// ScaleAlgoRow is one algorithm's measurement at one corpus scale, run
// over the compressed (group-codec) index.
type ScaleAlgoRow struct {
	Algo    string  `json:"algo"`
	Queries int     `json:"queries"`
	QPS     float64 `json:"qps"`
	MeanMs  float64 `json:"mean_ms"`
	P95Ms   float64 `json:"p95_ms"`
	// BlocksPerQuery counts physical page-cache misses per query.
	BlocksPerQuery float64 `json:"blocks_per_query"`
	// ViewCallsPerQuery counts reader-accounting round trips per query.
	ViewCallsPerQuery float64 `json:"view_calls_per_query"`
}

// ScaleRow is one corpus scale: the build and compression footprint
// plus the per-algorithm serving measurements.
type ScaleRow struct {
	Corpus          string         `json:"corpus"`
	Factor          int            `json:"factor"`
	Docs            int            `json:"docs"`
	Terms           int            `json:"terms"`
	Postings        int64          `json:"postings"`
	Codec           string         `json:"codec"`
	RawBytes        int64          `json:"raw_bytes"`
	CompressedBytes int64          `json:"compressed_bytes"`
	Ratio           float64        `json:"ratio"`
	BuildSec        float64        `json:"build_sec"`
	Algos           []ScaleAlgoRow `json:"algos"`
}

// ScaleReport is the machine-readable scale-envelope artifact
// (BENCH_scale.json).
type ScaleReport struct {
	Base     string     `json:"base"`
	K        int        `json:"k"`
	QueryLen int        `json:"query_len"`
	Threads  int        `json:"threads"`
	Rows     []ScaleRow `json:"rows"`
}

// RunScaleReport builds the corpus at each factor (1 = the base spec),
// compresses it with the default codec, and serves nQueries exact
// 12-term queries per algorithm, reporting compression ratio and
// serving metrics per scale. Each scale's indexes are dropped before
// the next is built. progress, when non-nil, receives one line per
// phase for long builds.
func RunScaleReport(base corpus.Spec, factors []int, cfg iomodel.Config,
	opts EnvOptions, nQueries, threads int, algos []AlgoID,
	progress func(string)) (ScaleReport, error) {
	opts = opts.withDefaults()
	say := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	rep := ScaleReport{
		Base:     base.Name,
		K:        opts.K,
		QueryLen: queriesMaxLen,
		Threads:  threads,
	}
	for _, f := range factors {
		spec := base
		if f > 1 {
			spec = corpus.ScaledSpec(base, f)
		}
		say("building %s (%d docs)...", spec.Name, spec.Docs)
		start := time.Now()
		mem := index.FromCorpus(corpus.New(spec))
		ci, err := diskindex.FromIndexWith(mem, opts.Shards, cfg, codec.Group)
		if err != nil {
			return rep, fmt.Errorf("bench: compressing %s: %w", spec.Name, err)
		}
		buildSec := time.Since(start).Seconds()
		row := ScaleRow{
			Corpus:          spec.Name,
			Factor:          f,
			Docs:            mem.NumDocs(),
			Terms:           mem.NumTerms(),
			Postings:        int64(mem.TotalPostings()),
			Codec:           ci.Codec().String(),
			RawBytes:        ci.RawBytes(),
			CompressedBytes: ci.CompressedBytes(),
			BuildSec:        buildSec,
		}
		if row.CompressedBytes > 0 {
			row.Ratio = float64(row.RawBytes) / float64(row.CompressedBytes)
		}
		say("%s built in %.1fs: %d postings, %.2fx compression", spec.Name,
			buildSec, row.Postings, row.Ratio)

		qs := queries.Generate(mem, queriesMaxLen, nQueries, opts.Seed).Length(queriesMaxLen)
		if len(qs) > nQueries {
			qs = qs[:nQueries]
		}
		// The in-memory index only seeds query generation; the serving
		// measurements below read the compressed view exclusively, so the
		// reference can go before the query loop starts. At factor 100 the
		// uncompressed postings dominate the resident set.
		mem = nil
		runtime.GC()

		for _, id := range algos {
			ci.Store().Flush()
			ci.Store().ResetStats()
			var lat stats.Sample
			alg := MakeAlgorithm(id, ci)
			wall := time.Now()
			for _, q := range qs {
				_, st, err := alg.Search(q, topk.Options{K: opts.K, Exact: true, Threads: threads})
				if err != nil {
					return rep, fmt.Errorf("bench: %s over %s: %w", id, spec.Name, err)
				}
				lat.AddDuration(st.Duration)
			}
			elapsed := time.Since(wall).Seconds()
			io := ci.Store().Snapshot()
			n := float64(len(qs))
			ar := ScaleAlgoRow{
				Algo:              string(id),
				Queries:           len(qs),
				MeanMs:            lat.Mean(),
				P95Ms:             lat.Percentile(95),
				BlocksPerQuery:    float64(io.BlocksRead) / n,
				ViewCallsPerQuery: float64(io.ViewCalls) / n,
			}
			if elapsed > 0 {
				ar.QPS = n / elapsed
			}
			row.Algos = append(row.Algos, ar)
			say("%s %s: %.1f qps, p95 %.2fms", spec.Name, id, ar.QPS, ar.P95Ms)
		}
		rep.Rows = append(rep.Rows, row)
		ci = nil
		runtime.GC()
	}
	return rep, nil
}

// WriteJSON writes the report to path, indented for diffing.
func (r ScaleReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Summary renders a human-readable digest of the report.
func (r ScaleReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale envelope (base %s, k=%d, %d-term exact queries, %d threads)\n",
		r.Base, r.K, r.QueryLen, r.Threads)
	fmt.Fprintf(&b, "%-8s %9s %11s %7s %8s  %-8s %9s %9s %9s %10s\n",
		"corpus", "docs", "postings", "ratio", "build s", "algo", "qps", "mean ms", "p95 ms", "blocks/q")
	for _, row := range r.Rows {
		for i, a := range row.Algos {
			c, d, p, ra, bs := row.Corpus, fmt.Sprint(row.Docs), fmt.Sprint(row.Postings),
				fmt.Sprintf("%.2fx", row.Ratio), fmt.Sprintf("%.1f", row.BuildSec)
			if i > 0 {
				c, d, p, ra, bs = "", "", "", "", ""
			}
			fmt.Fprintf(&b, "%-8s %9s %11s %7s %8s  %-8s %9.1f %9.2f %9.2f %10.1f\n",
				c, d, p, ra, bs, a.Algo, a.QPS, a.MeanMs, a.P95Ms, a.BlocksPerQuery)
		}
	}
	return b.String()
}
