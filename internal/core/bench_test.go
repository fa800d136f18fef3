package core

import (
	"fmt"
	"sync"
	"testing"

	"sparta/internal/cindex"
	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/queries"
	"sparta/internal/topk"
)

// ramLong is the benchmark's ram_long stack inside the package: the CW
// corpus behind the group-codec compressed index on the RAM store, and
// a pool of 12-term queries. Built once, on first use.
var ramLong struct {
	once sync.Once
	view *cindex.Index
	pool []model.Query
	err  error
}

func ramLongStack(tb testing.TB) (*cindex.Index, []model.Query) {
	tb.Helper()
	ramLong.once.Do(func() {
		mem := index.FromCorpus(corpus.New(corpus.DefaultSpec()))
		ramLong.view, ramLong.err = cindex.FromIndex(mem, 12, iomodel.RAMConfig())
		ramLong.pool = queries.Generate(mem, queries.MaxLen, 120, 2021).Length(queries.MaxLen)
	})
	if ramLong.err != nil {
		tb.Fatal(ramLong.err)
	}
	return ramLong.view, ramLong.pool
}

// BenchmarkSpartaRAMLong is the ruler for the hot loop: one exact
// 12-term query per op with no I/O cost, so ns/op, postings/op,
// cleanings/op, lookups/op (score completions, Stats.RandomAccesses) and
// allocs/op are what core itself spends. A result sink keeps the call
// from being optimized away.
func BenchmarkSpartaRAMLong(b *testing.B) {
	view, pool := ramLongStack(b)
	s := New(view)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			opts := topk.Options{K: 10, Exact: true, Threads: threads}
			var postings, cleanings, lookups int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, st, err := s.Search(pool[i%len(pool)], opts)
				if err != nil {
					b.Fatal(err)
				}
				postings += st.Postings
				cleanings += st.Cleanings
				lookups += st.RandomAccesses
				benchSink = res
			}
			b.ReportMetric(float64(postings)/float64(b.N), "postings/op")
			b.ReportMetric(float64(cleanings)/float64(b.N), "cleanings/op")
			b.ReportMetric(float64(lookups)/float64(b.N), "lookups/op")
		})
	}
}

var benchSink model.TopK

var raceEnabled bool // set by race_test.go

// TestSpartaSteadyStateAllocs is the allocation gate: once the pools
// are warm, a 12-term query at Threads 1 allocates its run state, its
// cursors and its answer — about a hundred objects — and no candidate
// memory. The parent of the pooled store read 1 388 here; the slack up
// to 300 absorbs a sync.Pool flushed by a GC cycle inside the run.
func TestSpartaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	view, pool := ramLongStack(t)
	s := New(view)
	opts := topk.Options{K: 10, Exact: true, Threads: 1}
	next := 0
	query := func() {
		res, _, err := s.Search(pool[next%len(pool)], opts)
		if err != nil {
			t.Fatal(err)
		}
		benchSink = res
		next++
	}
	for range pool { // warm-up: 120 queries
		query()
	}
	if got := testing.AllocsPerRun(len(pool), query); got > 300 {
		t.Errorf("%.0f allocs per 12-term query in steady state, want at most 300", got)
	} else {
		t.Logf("%.0f allocs per query", got)
	}
}
