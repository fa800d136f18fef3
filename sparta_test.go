package sparta_test

import (
	"path/filepath"
	"testing"
	"time"

	"sparta"
	"sparta/internal/algos/bmw"
	"sparta/internal/algos/jass"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/queries"
	"sparta/internal/sched"
	"sparta/internal/text"
	"sparta/internal/topk"
)

// The README quickstart, verbatim in spirit: index text, search, check.
func TestFacadeQuickstart(t *testing.T) {
	docs := []string{
		"parallel threshold algorithm for top k retrieval",
		"web search ranks documents with inverted indexes",
		"approximate evaluation trades recall for latency",
		"top k retrieval with parallel threshold algorithms scales",
	}
	b := sparta.NewIndexBuilder()
	for _, d := range docs {
		b.Add(d)
	}
	idx := b.Build()

	analyzer := text.NewAnalyzer()
	var q sparta.Query
	for _, w := range analyzer.Tokenize("parallel retrieval") {
		if tid, ok := idx.Lookup(w); ok {
			q = append(q, tid)
		}
	}
	if len(q) == 0 {
		t.Fatal("no query terms resolved")
	}

	alg := sparta.New(idx)
	res, st, err := alg.Search(q, sparta.Options{K: 2, Threads: 2, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	exact := sparta.Exact(idx, q, 2)
	if rec := sparta.Recall(exact, res); rec != 1 {
		t.Errorf("recall %v", rec)
	}
	if st.Postings == 0 {
		t.Error("no stats recorded")
	}
}

func TestFacadeApproximate(t *testing.T) {
	env := benchEnvT(t)
	q := env.Sets.Length(8)[0]
	alg := sparta.New(env.Disk)
	res, _, err := alg.Search(q, sparta.Options{K: 20, Threads: 8, Delta: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	exact := sparta.Exact(env.Mem, q, 20)
	if rec := sparta.Recall(exact, res); rec < 0.5 {
		t.Errorf("approximate recall %v", rec)
	}
}

// End-to-end offline pipeline: corpus -> on-disk index directory ->
// reopened index -> query pools -> concurrent query stream over a
// shared pool, with multiple algorithms — the full §5.1 workflow.
func TestIntegrationPipeline(t *testing.T) {
	env := benchEnvT(t)
	dir := filepath.Join(t.TempDir(), "index")
	if err := diskindex.WriteDir(env.Mem, dir); err != nil {
		t.Fatal(err)
	}
	cfg := iomodel.DefaultConfig()
	cfg.NoSleep = true
	idx, err := diskindex.OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sets := queries.Generate(idx, 8, 5, 99)
	stream := sets.VoiceMix(30, 7)
	for i, q := range stream {
		if len(q) > 8 {
			stream[i] = q[:8]
		}
	}
	for _, alg := range []topk.Algorithm{
		sparta.New(idx),
		bmw.NewPBMW(idx),
		jass.NewP(idx),
	} {
		res := sched.Run(alg, stream, 6, topk.Options{K: 10, Exact: true})
		if res.Errors != 0 {
			t.Errorf("%s: %d errors", alg.Name(), res.Errors)
		}
		if res.Queries != 30 {
			t.Errorf("%s: completed %d", alg.Name(), res.Queries)
		}
	}

	// Spot-check result fidelity through the reopened index.
	q := sets.Length(5)[0]
	exact := sparta.Exact(env.Mem, q, 10)
	got, _, err := sparta.New(idx).Search(q, sparta.Options{K: 10, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec := sparta.Recall(exact, got); rec != 1 {
		t.Errorf("recall through reopened index: %v", rec)
	}
}
