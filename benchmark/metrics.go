package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit; an end-to-end metric also
// says which direction is better and the share of the baseline's value
// by which it may worsen before a change counts as a regression. The
// two lists below are the benchmark's whole vocabulary: BENCHMARK.json
// repeats them (the test asserts the two agree), every run prints each
// of them exactly once per workload, and a metric that has no meaning
// on a workload (a layer the workload bypasses) reads 0 there.
type metricDef struct {
	name, unit string
	better     string
	bound      float64
}

// endToEnd are the numbers a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"recall_at_k", "ratio", "higher", 0.02},
}

// perLayer are the single-layer numbers of the traced run, prefixed by
// the module (internal/<module>) they describe.
var perLayer = []metricDef{
	{name: "searcher.admit_wait_ms_p50", unit: "ms"},
	{name: "searcher.admit_wait_ms_p95", unit: "ms"},
	{name: "searcher.overhead_us_p50", unit: "us"},
	{name: "searcher.p99_ms", unit: "ms"},
	{name: "searcher.over_50ms_share", unit: "ratio"},
	{name: "searcher.shed", unit: "count"},
	{name: "searcher.rejected", unit: "count"},
	{name: "searcher.deadline", unit: "count"},

	{name: "batchexec.pre_exec_wait_ms_p50", unit: "ms"},
	{name: "batchexec.mean_batch", unit: "count"},
	{name: "batchexec.coalesced_share", unit: "ratio"},
	{name: "batchexec.fused_batches", unit: "count"},
	{name: "batchexec.warmed_blocks", unit: "count"},

	{name: "fusedexec.fused_member_share", unit: "ratio"},
	{name: "fusedexec.fallback_member_share", unit: "ratio"},
	{name: "fusedexec.traversals_per_term", unit: "ratio"},
	{name: "fusedexec.blocks_saved_per_query", unit: "count"},
	{name: "fusedexec.detach_early_per_query", unit: "count"},
	{name: "fusedexec.block_skips_per_query", unit: "count"},
	{name: "fusedexec.ub_stops_per_query", unit: "count"},
	{name: "fusedexec.resolve_ra_per_query", unit: "count"},

	{name: "shardserve.shard_exec_ms_p50", unit: "ms"},
	{name: "shardserve.straggler_gap_ms_p50", unit: "ms"},
	{name: "shardserve.gather_overhead_ms_p50", unit: "ms"},
	{name: "shardserve.hedges_per_query", unit: "count"},
	{name: "shardserve.retries", unit: "count"},
	{name: "shardserve.shards_dropped", unit: "count"},
	{name: "shardserve.deadline_misses", unit: "count"},

	{name: "shardrpc.wire_added_ms_p50", unit: "ms"},
	{name: "shardrpc.wire_added_ms_p95", unit: "ms"},
	{name: "shardrpc.resolve_rpc_ms_p50", unit: "ms"},
	{name: "shardrpc.resolves_per_query", unit: "count"},
	{name: "shardrpc.dials", unit: "count"},
	{name: "shardrpc.conn_deaths", unit: "count"},
	{name: "shardrpc.server_errors", unit: "count"},
	{name: "shardrpc.unsettled_violations", unit: "count"},

	{name: "topk.merge_us_p50", unit: "us"},
	{name: "topk.resolve_us_p50", unit: "us"},
	{name: "topk.bruteforce_ms_p50", unit: "ms"},

	{name: "core.exec_ms_p50", unit: "ms"},
	{name: "core.exec_ms_p95", unit: "ms"},
	{name: "core.postings_per_query", unit: "count"},
	{name: "core.ns_per_posting", unit: "ns"},
	{name: "core.heap_inserts_per_query", unit: "count"},
	{name: "core.cleanings_per_query", unit: "count"},
	{name: "core.segments_per_query", unit: "count"},
	{name: "core.candidates_peak_p95", unit: "count"},
	{name: "core.stop_safe_share", unit: "ratio"},
	{name: "core.stop_exhausted_share", unit: "ratio"},
	{name: "core.stop_delta_share", unit: "ratio"},
	{name: "core.stop_ubstop_share", unit: "ratio"},
	{name: "core.decode_floor_share", unit: "ratio"},
	{name: "core.thread_speedup", unit: "ratio"},

	{name: "algos.pbmw_exact_p50_ms", unit: "ms"},
	{name: "algos.pjass_exact_p50_ms", unit: "ms"},
	{name: "algos.sparta_over_best_baseline", unit: "ratio"},

	{name: "cindex.walk_ns_per_posting", unit: "ns"},
	{name: "cindex.score_cursor_ns_per_posting", unit: "ns"},
	{name: "cindex.doc_cursor_ns_per_posting", unit: "ns"},
	{name: "cindex.bytes_per_posting", unit: "B"},
	{name: "cindex.build_s", unit: "s"},

	{name: "diskindex.walk_ns_per_posting", unit: "ns"},
	{name: "diskindex.bytes_per_posting", unit: "B"},
	{name: "diskindex.build_s", unit: "s"},

	{name: "codec.decode_doc_ns_per_posting", unit: "ns"},
	{name: "codec.decode_impact_ns_per_posting", unit: "ns"},
	{name: "codec.encode_doc_ns_per_posting", unit: "ns"},
	{name: "codec.ratio", unit: "ratio"},

	{name: "plcache.hit_rate", unit: "ratio"},
	{name: "plcache.fills_per_query", unit: "count"},
	{name: "plcache.dup_fills_suppressed", unit: "count"},
	{name: "plcache.admission_rejects_per_query", unit: "count"},
	{name: "plcache.bytes_used_share", unit: "ratio"},

	{name: "iomodel.blocks_read_per_query", unit: "count"},
	{name: "iomodel.page_cache_hit_rate", unit: "ratio"},
	{name: "iomodel.sim_io_ms_per_query", unit: "ms"},
	{name: "iomodel.sim_io_share", unit: "ratio"},
	{name: "iomodel.view_calls_per_query", unit: "count"},
	{name: "iomodel.rand_read_share", unit: "ratio"},
	{name: "iomodel.unsettled_ns", unit: "ns"},

	{name: "liveindex.append_p50_ms", unit: "ms"},
	{name: "liveindex.append_p95_ms", unit: "ms"},
	{name: "liveindex.append_max_ms", unit: "ms"},
	{name: "liveindex.ingest_docs_per_s", unit: "1/s"},
	{name: "liveindex.flushes", unit: "count"},
	{name: "liveindex.compactions", unit: "count"},
	{name: "liveindex.segments_end", unit: "count"},
	{name: "liveindex.wal_bytes_per_doc", unit: "B"},
	{name: "liveindex.memtable_bytes_per_doc", unit: "B"},
	{name: "liveindex.reopen_s", unit: "s"},

	{name: "index.build_s", unit: "s"},
	{name: "index.postings", unit: "count"},

	{name: "process.alloc_kb_per_query", unit: "kB"},
	{name: "process.gc_cycles_per_kq", unit: "count"},
	{name: "process.gc_pause_ms_per_kq", unit: "ms"},
	{name: "process.rss_mb", unit: "MB"},
	{name: "process.trace_overhead_share", unit: "ratio"},

	{name: "loadgen.lag_ms_p95", unit: "ms"},
	{name: "loadgen.lag_ms_max", unit: "ms"},
}

// value is one reported metric: the median of its per-round values,
// with the extremes and the values themselves, so a reader sees how far
// rounds disagreed.
type value struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// spread is the distance between the quartiles of the per-round values
// as a share of the reported value.
func (v value) spread() float64 {
	s := sorted(v.Rounds)
	return ratio(quantile(s, 0.75)-quantile(s, 0.25), v.Median)
}

// summarize folds per-round values into a value.
func summarize(rounds []float64, unit string) value {
	if len(rounds) == 0 {
		return value{Unit: unit}
	}
	s := sorted(rounds)
	return value{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], Unit: unit, Rounds: rounds}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile of an ascending slice by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
