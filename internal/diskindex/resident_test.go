package diskindex

import (
	"testing"
	"time"

	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/plcache"
	"sparta/internal/postings"
)

// TestResidentProbe checks which lookups the probe prices as resident:
// every block of a store that charges nothing, and no block of one that
// charges — cold, read, or held by the page cache and the decoded-block
// cache alike. A probe charges nothing: the store's and the cache's
// counters do not move under it, and nothing is left unsettled.
func TestResidentProbe(t *testing.T) {
	mem := testCorpusIndex(t, 4000)
	const term = 0
	var docs []model.DocID
	for i, p := range mem.Postings(term) {
		if i%postings.BlockSize == 0 {
			docs = append(docs, p.Doc)
		}
	}

	ram, err := FromIndex(mem, 2, iomodel.RAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if !ram.Resident(term, d) {
			t.Fatalf("RAM store: doc %d not resident", d)
		}
	}

	x, err := FromIndex(mem, 2, iomodel.Config{
		BlockSize: 512, CacheBlocks: 1 << 12,
		SeqLatency: time.Microsecond, RandLatency: 2 * time.Microsecond, SleepBatch: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := x.Store()
	store.Flush()
	d := docs[len(docs)/2]
	if x.Resident(term, d) {
		t.Fatal("cold store: block resident")
	}
	cache := plcache.New(plcache.Config{AdmitFirstTouch: true})
	x.SetPostingCache(cache)
	x.RandomAccess(term, d)
	for c := x.DocCursor(term); c.Next(); {
	}
	st, cs := store.Snapshot(), cache.Snapshot()
	for _, d := range docs {
		if x.Resident(term, d) {
			t.Fatalf("charging store: doc %d resident", d)
		}
	}
	if got := store.Snapshot(); got != st {
		t.Fatalf("probes moved the store's counters: %+v, then %+v", st, got)
	}
	if got := cache.Snapshot(); got != cs {
		t.Fatalf("probes moved the cache's counters: %+v, then %+v", cs, got)
	}
	if store.Unsettled() != 0 {
		t.Fatalf("Unsettled %v", store.Unsettled())
	}
}
