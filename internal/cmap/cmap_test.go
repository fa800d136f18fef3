package cmap

import (
	"sync"
	"testing"
	"testing/quick"

	"sparta/internal/model"
)

func TestGetOrCreate(t *testing.T) {
	m := New(16)
	d1, created := m.GetOrCreate(5, func() *DocState { return NewDocState(5, 3) })
	if !created || d1 == nil {
		t.Fatal("first GetOrCreate should create")
	}
	d2, created := m.GetOrCreate(5, func() *DocState { t.Fatal("create called twice"); return nil })
	if created || d2 != d1 {
		t.Fatal("second GetOrCreate should return existing")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestGetOrCreateNilAborts(t *testing.T) {
	m := New(16)
	d, created := m.GetOrCreate(9, func() *DocState { return nil })
	if d != nil || created {
		t.Error("nil create must not insert")
	}
	if m.Len() != 0 || m.Get(9) != nil {
		t.Error("aborted insert left residue")
	}
}

func TestGetMissing(t *testing.T) {
	m := New(16)
	if m.Get(42) != nil {
		t.Error("Get of absent id should be nil")
	}
}

func TestPutReplaces(t *testing.T) {
	m := New(16)
	a := NewDocState(7, 2)
	b := NewDocState(7, 2)
	m.Put(a)
	m.Put(b)
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1 after replace", m.Len())
	}
	if m.Get(7) != b {
		t.Error("Put did not replace")
	}
}

func TestRangeAndSnapshot(t *testing.T) {
	m := New(16)
	for i := 0; i < 100; i++ {
		m.Put(NewDocState(model.DocID(i), 1))
	}
	seen := make(map[model.DocID]bool)
	m.Range(func(d *DocState) bool {
		seen[d.ID] = true
		return true
	})
	if len(seen) != 100 {
		t.Errorf("Range visited %d, want 100", len(seen))
	}
	snap := m.Snapshot()
	if len(snap) != 100 {
		t.Errorf("Snapshot len %d, want 100", len(snap))
	}
	// Early termination.
	n := 0
	m.Range(func(d *DocState) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("Range did not stop early: %d", n)
	}
}

func TestConcurrentGetOrCreate(t *testing.T) {
	m := New(1024)
	const goroutines, docs = 8, 2000
	var wg sync.WaitGroup
	results := make([][]*DocState, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]*DocState, docs)
			for i := 0; i < docs; i++ {
				id := model.DocID(i)
				d, _ := m.GetOrCreate(id, func() *DocState { return NewDocState(id, 4) })
				results[g][i] = d
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != docs {
		t.Errorf("Len = %d, want %d", m.Len(), docs)
	}
	// All goroutines must observe the same pointer per id.
	for i := 0; i < docs; i++ {
		for g := 1; g < goroutines; g++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("doc %d: goroutines got different DocStates", i)
			}
		}
	}
}

func TestDocStateScoresAndLB(t *testing.T) {
	d := NewDocState(1, 4)
	if d.LB() != 0 || d.NumTerms() != 4 {
		t.Fatal("fresh DocState not zeroed")
	}
	d.SetScore(1, 100)
	d.SetScore(3, 50)
	if d.ScoreAt(1) != 100 || d.ScoreAt(3) != 50 || d.ScoreAt(0) != 0 {
		t.Error("ScoreAt mismatch")
	}
	if d.LB() != 150 {
		t.Errorf("LB = %d, want 150", d.LB())
	}
}

func TestDocStateUB(t *testing.T) {
	d := NewDocState(1, 3)
	d.SetScore(0, 40)
	ub := []model.Score{38, 32, 41}
	// UB(D) = 40 + 32 + 41 (known score replaces the bound).
	if got := d.UB(ub); got != 113 {
		t.Errorf("UB = %d, want 113", got)
	}
	d.SetScore(1, 5)
	if got := d.UB(ub); got != 40+5+41 {
		t.Errorf("UB = %d, want 86", got)
	}
}

func TestDocStatePaperExample(t *testing.T) {
	// Figure 1: D57 has known scores 40 (term 2) and 41 (term 3);
	// UB = [38, 32, 41] after the traversal shown.
	d := NewDocState(57, 3)
	d.SetScore(1, 40)
	d.SetScore(2, 41)
	ub := []model.Score{38, 32, 41}
	if got := d.UB(ub); got != 119 {
		t.Errorf("UB(D57) = %d, want 119 (38+40+41)", got)
	}
	if got := d.LB(); got != 81 {
		t.Errorf("LB(D57) = %d, want 81 (40+41)", got)
	}
}

func TestConcurrentScoreUpdates(t *testing.T) {
	// One writer per term slot, concurrent readers: must be race-free
	// and LB must converge to the exact sum.
	d := NewDocState(1, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.SetScore(i, model.Score(i+1))
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ub := []model.Score{9, 9, 9, 9, 9, 9, 9, 9}
		for i := 0; i < 1000; i++ {
			lb, u := d.LB(), d.UB(ub)
			if lb > u {
				t.Error("LB exceeded UB during concurrent updates")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if d.LB() != 36 {
		t.Errorf("final LB = %d, want 36", d.LB())
	}
}

func TestLenMatchesDistinctIDsProperty(t *testing.T) {
	f := func(ids []uint16) bool {
		m := New(4)
		distinct := make(map[model.DocID]bool)
		for _, raw := range ids {
			id := model.DocID(raw)
			m.GetOrCreate(id, func() *DocState { return NewDocState(id, 1) })
			distinct[id] = true
		}
		return m.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
