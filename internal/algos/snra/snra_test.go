package snra

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/codec"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// sharded builds x on a free store pre-partitioned into shards: sNRA
// partitions an index at its build-time shard count.
func sharded(t *testing.T, x *index.Index, shards int) *diskindex.Index {
	t.Helper()
	disk, err := diskindex.FromIndex(x, shards, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	return disk
}

func TestSNRAExactHighRecall(t *testing.T) {
	x := algotest.SmallIndex(t, 1)
	a := New(sharded(t, x, 4))
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
			// Completed shard answers merge exactly (see package docs);
			// the paper's own Table 3 reports 99%.
			algotest.AssertExact(t, fmt.Sprintf("m=%d threads=%d", m, threads), exact, got)
		}
	}
}

func TestSNRAMediumRecall(t *testing.T) {
	x := algotest.MediumIndex(t, 2)
	a := New(sharded(t, x, 8))
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

func TestSNRAShardsDefaultFromDiskIndex(t *testing.T) {
	mem := algotest.SmallIndex(t, 3)
	cfg := iomodel.DefaultConfig()
	cfg.NoSleep = true
	q := algotest.RandomQuery(mem, 3, 11)
	exact := topk.BruteForce(mem, q, 10)
	// The build-time count is the on-disk index's under either codec; a
	// view sNRA fails to ask falls back to 12 and panics in
	// ScoreCursorShard.
	for _, id := range []codec.ID{codec.Raw, codec.Group} {
		disk, err := diskindex.FromIndexWith(mem, 4, cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		// The index's build-time count (4), not the default 12.
		got, _, err := New(disk).Search(q, topk.Options{K: 10, Exact: true, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		algotest.AssertExact(t, id.String(), exact, got)
	}
}

func TestSNRADelta(t *testing.T) {
	x := algotest.MediumIndex(t, 4)
	a := New(sharded(t, x, 4))
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
	a := New(sharded(t, x, 4))
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
	// total work because each shard needs its own full top-k with a
	// weaker local threshold.
	x := algotest.MediumIndex(t, 6)
	q := algotest.RandomQuery(x, 4, 19)
	_, stShard, err := New(sharded(t, x, 8)).Search(q, topk.Options{K: 100, Exact: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential NRA = 1 shard.
	_, stSeq, err := New(sharded(t, x, 1)).Search(q, topk.Options{K: 100, Exact: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stShard.Postings < stSeq.Postings {
		t.Errorf("sharded postings %d < sequential %d; expected extra work",
			stShard.Postings, stSeq.Postings)
	}
}
