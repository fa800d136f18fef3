package liveindex

import (
	"slices"
	"testing"

	"sparta/internal/corpus"
	"sparta/internal/iomodel"
	"sparta/internal/model"
)

// TestEpochDFMatchesFromScratchSum checks the published epoch's df —
// the kept frozen sum plus the memtable — against a sum over every
// segment of the epoch made from scratch, after appends that grow the
// dictionary, a flush, the flushes appends trigger, a compaction and a
// reopen.
func TestEpochDFMatchesFromScratchSum(t *testing.T) {
	dir := t.TempDir()
	io := iomodel.RAMConfig()
	cfg := Config{IO: &io, FlushDocs: 40, DisableCompaction: true}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { l.Close() }()
	check := func(step string) {
		t.Helper()
		l.mu.Lock()
		defer l.mu.Unlock()
		e := l.epochNow()
		want := make([]int32, len(l.names))
		for _, fz := range l.frozen {
			for t, d := range fz.dfs {
				want[t] += d
			}
		}
		for _, v := range e.views {
			if mv, ok := v.(*memView); ok {
				for t, mt := range mv.seg.terms {
					if mt != nil {
						want[t] += int32(len(mt.post))
					}
				}
			}
		}
		if !slices.Equal(e.df, want) {
			t.Fatalf("after %s: epoch df %v, from scratch %v", step, e.df, want)
		}
	}
	next := 0
	appendDocs := func(n int) {
		for range n {
			i := next
			next++
			bag := []corpus.TermCount{{Term: model.TermID(i % 7), Count: 1}, {Term: model.TermID(7 + i/9), Count: uint32(1 + i%3)}}
			if _, err := l.AppendBag(bag); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("open")
	appendDocs(25)
	check("appends")
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flush")
	appendDocs(100) // two flushes at FlushDocs 40, and a memtable left
	check("appends that flush")
	if len(l.frozen) < 3 {
		t.Fatalf("%d frozen segments, want at least 3", len(l.frozen))
	}
	if ok, err := l.Compact(); err != nil || !ok {
		t.Fatalf("compact: merged %v, err %v", ok, err)
	}
	check("compact")
	appendDocs(5)
	check("appends after compact")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, cfg); err != nil {
		t.Fatal(err)
	}
	check("reopen")
}
