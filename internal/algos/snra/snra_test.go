package snra

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/codec"
	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// partitioned builds x's p parts onto a free store.
func partitioned(t *testing.T, x *index.Index, p int) *SNRA {
	t.Helper()
	parts, err := OnDisk(x, p, iomodel.NewStore(iomodel.RAMConfig()), codec.Raw)
	if err != nil {
		t.Fatal(err)
	}
	return New(parts)
}

// inMemory is sNRA over x's p in-memory parts.
func inMemory(x *index.Index, p int) *SNRA {
	var parts []postings.View
	for _, part := range x.Partition(p) {
		parts = append(parts, part)
	}
	return New(parts)
}

func TestSNRAExactHighRecall(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	a := partitioned(t, x, 4)
	for _, m := range []int{1, 2, 3, 5} {
		for _, threads := range []int{1, 2, 4} {
			q := algotest.RandomQuery(x, m, uint64(m*5+threads))
			exact := topk.BruteForce(x, q, 20)
			got, _, err := a.Search(q, topk.Options{
				K: 20, Exact: true, Threads: threads, SegSize: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Completed part answers merge exactly (see package docs);
			// the paper's own Table 3 reports 99%.
			algotest.AssertExact(t, fmt.Sprintf("m=%d threads=%d", m, threads), exact, got)
		}
	}
}

func TestSNRAMediumRecall(t *testing.T) {
	x := algotest.MediumIndex(t, 2)
	a := partitioned(t, x, 8)
	q := algotest.RandomQuery(x, 6, 7)
	exact := topk.BruteForce(x, q, 100)
	got, st, err := a.Search(q, topk.Options{K: 100, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	algotest.AssertExact(t, "medium", exact, got)
	if st.Postings == 0 {
		t.Error("no postings counted")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/work_threads1.golden")

// TestSNRAWorkAtThreads1 pins sNRA-exact's work at Threads 1, where the
// parts run one after another: per query, its postings, random accesses
// and the blocks it reads from a cold simulated disk, on the in-memory
// parts and on parts built under the raw and the group codec
// (testdata/work_threads1.golden; -update rewrites it). Every answer
// must be brute force's. A change that moves a number changed what sNRA
// reads: review the golden file's diff.
func TestSNRAWorkAtThreads1(t *testing.T) {
	x := index.FromCorpus(corpus.New(corpus.Spec{
		Name: "work", Docs: 12000, Vocab: 1000, ZipfS: 1.0, MeanDocLen: 60, MinDocLen: 5, Seed: 8,
	}))
	cfg := iomodel.DefaultConfig()
	cfg.NoSleep = true
	var pool []model.Query
	for m := 1; m <= 6; m++ {
		pool = append(pool, algotest.RandomQuery(x, m, uint64(40+m)), algotest.RandomQuery(x, m, uint64(50+m)))
	}
	type view struct {
		name  string
		a     *SNRA
		store *iomodel.Store
	}
	views := []view{{"memory", inMemory(x, Partitions), nil}}
	for _, id := range []codec.ID{codec.Raw, codec.Group} {
		store := iomodel.NewStore(cfg)
		parts, err := OnDisk(x, Partitions, store, id)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, view{id.String(), New(parts), store})
	}
	var b strings.Builder
	fmt.Fprintln(&b, "# view query terms stop postings random_accesses blocks_read")
	for _, v := range views {
		for i, q := range pool {
			if v.store != nil {
				v.store.Flush()
				v.store.ResetStats()
			}
			got, st, err := v.a.Search(q, topk.Options{K: 10, Exact: true, Threads: 1, SegSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			algotest.AssertExact(t, fmt.Sprintf("%s q%02d", v.name, i), topk.BruteForce(x, q, 10), got)
			var blocks int64
			if v.store != nil {
				blocks = v.store.Snapshot().BlocksRead
			}
			fmt.Fprintf(&b, "%s q%02d %v %s %d %d %d\n", v.name, i, q, st.StopReason, st.Postings, st.RandomAccesses, blocks)
		}
	}
	path := filepath.Join("testdata", "work_threads1.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != b.String() {
		t.Errorf("sNRA's work moved:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSNRADelta(t *testing.T) {
	x := algotest.MediumIndex(t, 4)
	a := partitioned(t, x, 4)
	q := algotest.RandomQuery(x, 6, 13)
	exact := topk.BruteForce(x, q, 50)
	got, _, err := a.Search(q, topk.Options{
		K: 50, Delta: 2 * time.Millisecond, Threads: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := model.Recall(exact, got); rec < 0.4 {
		t.Errorf("approximate recall %v", rec)
	}
}

func TestSNRAMemoryBudget(t *testing.T) {
	x := algotest.MediumIndex(t, 5)
	a := partitioned(t, x, 4)
	q := algotest.RandomQuery(x, 5, 17)
	b := membudget.New(1000)
	_, st, err := a.Search(q, topk.Options{K: 10, Exact: true, Threads: 2, Budget: b})
	if !errors.Is(err, membudget.ErrMemoryBudget) {
		t.Fatalf("err = %v", err)
	}
	if st.StopReason != "oom" {
		t.Errorf("stop = %q", st.StopReason)
	}
}

func TestSNRAScansMoreThanSequentialNRA(t *testing.T) {
	// The paper's headline negative result: shared-nothing does *more*
	// total work because each part needs its own full top-k with a
	// weaker local threshold.
	x := algotest.MediumIndex(t, 6)
	q := algotest.RandomQuery(x, 4, 19)
	_, stShard, err := partitioned(t, x, 8).Search(q, topk.Options{K: 100, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential NRA = 1 part.
	_, stSeq, err := partitioned(t, x, 1).Search(q, topk.Options{K: 100, Exact: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stShard.Postings < stSeq.Postings {
		t.Errorf("sharded postings %d < sequential %d; expected extra work",
			stShard.Postings, stSeq.Postings)
	}
}
