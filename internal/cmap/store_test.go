package cmap

import (
	"fmt"
	"math/rand"
	"testing"

	"sparta/internal/model"
)

// activeSlots sums the active prefixes of m's stripes: what a Range or
// a clear of m walks.
func activeSlots(m *Map) int {
	n := 0
	for i := range m.shards {
		n += len(m.shards[i].t.keys)
	}
	return n
}

// checkAgainstOracle verifies Len, Get and Range (every entry exactly
// once) of a quiescent map or table against a Go map.
func checkAgainstOracle(t *testing.T, label string, n int, get func(model.DocID) *DocState, rng func(func(*DocState) bool), oracle map[model.DocID]*DocState) {
	t.Helper()
	if n != len(oracle) {
		t.Fatalf("%s: Len %d, oracle holds %d", label, n, len(oracle))
	}
	visits := make(map[model.DocID]int, len(oracle))
	rng(func(d *DocState) bool {
		if oracle[d.ID] != d {
			t.Fatalf("%s: Range visited %p for id %d, oracle holds %p", label, d, d.ID, oracle[d.ID])
		}
		visits[d.ID]++
		return true
	})
	for id, d := range oracle {
		if visits[id] != 1 {
			t.Fatalf("%s: Range visited id %d %d times", label, id, visits[id])
		}
		if got := get(id); got != d {
			t.Fatalf("%s: Get(%d) = %p, oracle holds %p", label, id, got, d)
		}
	}
}

// TestStoreReuseMatchesOracle drives one Store through check-out, use
// and give-back rounds of very different sizes and checks every map
// and table it hands out against a Go map: nothing of the previous
// owner is visible, and what a round costs follows what it holds, not
// what an earlier round left behind.
func TestStoreReuseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	st := new(Store)
	var previous []model.DocID // ids the last round stored
	sizes := []int{12000, 40, 0, 5000, 40, 12000, 3, 5000}
	for round := 0; round < 24; round++ {
		n := sizes[round%len(sizes)]
		hint := []int{0, 40, 5000}[rng.Intn(3)]
		shards := []int{1, DefaultShards}[round%2]
		label := fmt.Sprintf("round %d (n %d, hint %d, %d stripes)", round, n, hint, shards)

		m := st.Map(shards, hint)
		tb := st.Table(hint)
		sl := st.Slab(2)
		// The active prefix at check-out follows the hint alone.
		if got, want := activeSlots(m), shards*tableSize(hint/shards); got != want {
			t.Fatalf("%s: %d active slots at check-out, want %d", label, got, want)
		}
		if got, want := len(tb.keys), tableSize(hint); got != want {
			t.Fatalf("%s: table has %d active slots at check-out, want %d", label, got, want)
		}
		if m.Len() != 0 || tb.n != 0 {
			t.Fatalf("%s: checked out with %d / %d entries", label, m.Len(), tb.n)
		}
		for _, id := range previous {
			if m.Get(id) != nil || tb.Get(id) != nil {
				t.Fatalf("%s: id %d of the previous owner is visible", label, id)
			}
		}

		base := model.DocID(round * 100_000) // rounds share some ids, not all
		mo := make(map[model.DocID]*DocState, n)
		to := make(map[model.DocID]*DocState, n)
		for len(mo) < n {
			id := base + model.DocID(rng.Intn(3*n+1))
			switch rng.Intn(4) {
			case 0: // Put inserts or replaces
				d := sl.New(id)
				m.Put(d)
				mo[id] = d
			case 1: // an aborted create leaves nothing behind
				if d, created := m.GetOrCreate(id, func() *DocState { return nil }); created || d != mo[id] {
					t.Fatalf("%s: aborted GetOrCreate(%d) = %p, %v", label, id, d, created)
				}
			default:
				d, created := m.GetOrCreate(id, func() *DocState { return sl.New(id) })
				if _, had := mo[id]; created == had || (had && d != mo[id]) {
					t.Fatalf("%s: GetOrCreate(%d) = %p, created %v; oracle had it: %v", label, id, d, created, had)
				}
				mo[id] = d
			}
			if d := mo[id]; d != nil && rng.Intn(2) == 0 {
				tb.Put(d)
				to[id] = d
			}
		}
		checkAgainstOracle(t, label+" map", m.Len(), m.Get, m.Range, mo)
		checkAgainstOracle(t, label+" table", tb.n, tb.Get, func(f func(*DocState) bool) { tb.each(f) }, to)
		// Growth stops at the first prefix that is at most three quarters
		// full, so a prefix that grew is more than three eighths full.
		for i := range m.shards {
			if tt := &m.shards[i].t; len(tt.keys) > tableSize(hint/shards) && tt.n*8 <= len(tt.keys)*3 {
				t.Fatalf("%s: stripe %d holds %d entries in %d active slots", label, i, tt.n, len(tt.keys))
			}
		}

		previous = previous[:0]
		for id := range mo {
			previous = append(previous, id)
		}
		st.reset()
	}
}

func TestStoreMapKeepsStripeCountOfTheAsker(t *testing.T) {
	st := new(Store)
	for _, shards := range []int{DefaultShards, 1, 4, DefaultShards} {
		m := st.Map(shards, 100)
		if len(m.shards) != shards {
			t.Fatalf("asked for %d stripes, got %d", shards, len(m.shards))
		}
		for id := model.DocID(0); id < 500; id++ {
			m.Put(NewDocState(id, 1))
		}
		if m.Len() != 500 {
			t.Fatalf("%d stripes: Len %d, want 500", shards, m.Len())
		}
		st.reset()
	}
}

// assertFreshAndDisjoint fills every score slot of n candidates carved
// from s with its own value: a candidate that does not start clean, or
// a score vector that aliases another, shows.
func assertFreshAndDisjoint(t *testing.T, s *Slab, m, n int) {
	t.Helper()
	states := make([]*DocState, n)
	for i := range states {
		d := s.New(model.DocID(i))
		if d.ID != model.DocID(i) || d.NumTerms() != m || d.HeapIdx != -1 || d.CachedLB != 0 || d.LB() != 0 {
			t.Fatalf("state %d does not start clean: id %d, %d terms, HeapIdx %d, CachedLB %d, LB %d",
				i, d.ID, d.NumTerms(), d.HeapIdx, d.CachedLB, d.LB())
		}
		for j := 0; j < m; j++ {
			if d.ScoreAt(j) != 0 {
				t.Fatalf("state %d term %d starts at %d", i, j, d.ScoreAt(j))
			}
		}
		if cap(d.scores) != m {
			t.Fatalf("state %d: score vector capacity %d, want %d", i, cap(d.scores), m)
		}
		states[i] = d
	}
	for i, d := range states {
		for j := 0; j < m; j++ {
			d.SetScore(j, model.Score(i*m+j+1))
		}
		d.CachedLB, d.HeapIdx = d.LB(), i // as the heap would leave them
	}
	for i, d := range states {
		var lb model.Score
		for j := 0; j < m; j++ {
			want := model.Score(i*m + j + 1)
			if got := d.ScoreAt(j); got != want {
				t.Fatalf("state %d term %d = %d, want %d: score vectors alias", i, j, got, want)
			}
			lb += want
		}
		if d.LB() != lb {
			t.Fatalf("state %d LB %d, want %d", i, d.LB(), lb)
		}
	}
}

func TestSlabStatesAreFreshAndDisjoint(t *testing.T) {
	const m, n = 5, 3 * slabMaxChunk // crosses every chunk size
	assertFreshAndDisjoint(t, NewSlab(m), m, n)
}

// TestSlabRecarvesCleanCandidates gives a slab back with every
// candidate scored and in the heap, and takes it out again for queries
// of other lengths: the same memory comes back, clean.
func TestSlabRecarvesCleanCandidates(t *testing.T) {
	st := new(Store)
	sl := st.Slab(3)
	first := sl.New(7)
	first.SetScore(1, 99)
	first.CachedLB, first.HeapIdx = 99, 4
	assertFreshAndDisjoint(t, sl, 3, 2*slabMaxChunk)
	chunks := len(sl.states.chunks)
	st.reset()

	for _, m := range []int{3, 12, 1, 0, 3} {
		sl := st.Slab(m)
		if d := sl.New(8); d != first {
			t.Fatalf("m=%d: first candidate at %p, want the kept chunk's first slot %p", m, d, first)
		} else if d.ID != 8 || d.LB() != 0 || d.CachedLB != 0 || d.HeapIdx != -1 || d.NumTerms() != m {
			t.Fatalf("m=%d: re-carved candidate is not clean: %+v", m, d)
		}
		assertFreshAndDisjoint(t, sl, m, 2*slabMaxChunk)
		if len(sl.states.chunks) != chunks {
			t.Errorf("m=%d: %d state chunks after reuse, %d before: kept chunks were not reused", m, len(sl.states.chunks), chunks)
		}
		st.reset()
	}
}
