// Package sparta implements Sparta — the Scalable PARallel Threshold
// Algorithm for approximate top-k retrieval on multi-core hardware
// (Sheffi, Basin, Bortnikov, Carmel, Keidar; PPoPP '20) — together
// with the full evaluation stack of the paper: an inverted-index
// engine, simulated disk-resident storage, the competing retrieval
// algorithms (pBMW, pJASS, pRA, pNRA, sNRA and their sequential
// ancestors), synthetic web-scale corpora, and query workloads.
//
// This root package is the facade: it re-exports the types a typical
// user needs so the library can be used without reaching into the
// sub-packages. Power users (custom index views, the experiment
// harness, individual baselines) import the sub-packages directly —
// see README.md for the map.
//
// # Quick use
//
//	b := sparta.NewIndexBuilder()
//	for _, doc := range docs {
//		b.Add(doc)
//	}
//	idx := b.Build()
//	alg := sparta.New(idx)
//	res, stats, err := alg.Search(query, sparta.Options{K: 10, Threads: 4, Exact: true})
//
// Approximate retrieval (the paper's headline mode) replaces Exact
// with a Delta: a Sparta query still stops safe, with the exact answer,
// as soon as it can prove it, and otherwise once the result heap has
// been stable for that long.
package sparta

import (
	"sparta/internal/core"
	"sparta/internal/index"
	"sparta/internal/metrics"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// Core retrieval types, re-exported.
type (
	// DocID identifies a document.
	DocID = model.DocID
	// TermID identifies a dictionary term.
	TermID = model.TermID
	// Score is a fixed-point document/term score (tf-idf × 10⁶).
	Score = model.Score
	// Query is a bag of term ids.
	Query = model.Query
	// Result is one ranked document.
	Result = model.Result
	// TopK is a ranked result list.
	TopK = model.TopK

	// Options parameterizes a search (K, Threads, Exact, Delta, ...).
	Options = topk.Options
	// Stats reports what a search did.
	Stats = topk.Stats
	// Algorithm is the interface all retrieval strategies implement.
	Algorithm = topk.Algorithm

	// Observer receives per-query execution events (query start/finish,
	// segment scheduling, heap updates, cleaner passes, simulated I/O).
	Observer = topk.Observer
	// NopObserver is an Observer that ignores every event; embed it to
	// implement only the events of interest.
	NopObserver = topk.NopObserver
	// RecordingObserver is a thread-safe counting Observer.
	RecordingObserver = topk.RecordingObserver

	// Index is the in-memory inverted index.
	Index = index.Index
	// IndexBuilder accumulates documents into an Index.
	IndexBuilder = index.Builder
	// View is the index-read interface an Algorithm runs over; any
	// type implementing it (including application-specific stores, see
	// examples/analytics) can be searched.
	View = postings.View

	// PostingCache is a budgeted, shared cache of decoded posting
	// blocks — the hot-term tier above the simulated page cache. Attach
	// one to an on-disk index with its SetPostingCache (one cache per
	// index: keys are (term, region, block)) and hand it to
	// SearcherConfig.PostingCache to surface its counters.
	PostingCache = plcache.Cache
	// PostingCacheStats is a point-in-time PostingCache snapshot.
	PostingCacheStats = plcache.Stats

	// MetricsRegistry is a dependency-free named-metrics registry;
	// Searchers and shard groups register their counters into one, and
	// WriteJSON serves it as a /stats endpoint (see examples/server).
	MetricsRegistry = metrics.Registry
)

// Stop reasons reported in Stats.StopReason when a query's context
// ends before the algorithm's own stopping condition: the returned
// top-k is the anytime partial result, and the error is nil.
const (
	StopCancelled = topk.StopCancelled
	StopDeadline  = topk.StopDeadline
	// StopShed: load-aware admission dropped the query before execution
	// (SearcherConfig.ShedQuantile); the error is ErrAdmissionShed.
	StopShed = topk.StopShed
)

// New creates a Sparta instance over an index view.
func New(view View) *core.Sparta { return core.New(view) }

// NewIndexBuilder creates an empty index builder with the default text
// analyzer.
func NewIndexBuilder() *IndexBuilder { return index.NewBuilder() }

// Recall measures an approximate result's quality against the exact
// one: the fraction of the exact top-k it contains (§2 of the paper).
func Recall(exact, approx TopK) float64 { return model.Recall(exact, approx) }

// Exact computes the exact top-k by brute force — the ground truth for
// recall measurement.
func Exact(v View, q Query, k int) TopK { return topk.BruteForce(v, q, k) }

// NewPostingCache creates a decoded-block cache holding at most
// limitBytes (<= 0 means unbounded — bound it in serving).
func NewPostingCache(limitBytes int64) *PostingCache {
	return plcache.NewWithBudget(limitBytes)
}

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }
