package cmap

import (
	"math/bits"

	"sparta/internal/model"
)

// Table is an insert-only open-addressed hash table from document id
// to candidate: keys (id+1, 0 = empty; ids are dense from 0, so 2³²−1
// is never one) and values in parallel slices, linear probing, so a
// miss — the common lookup once the map is complete — reads keys only,
// sixteen to a cache line. It is not synchronized: a Map stripe holds
// one under its mutex, and Sparta's per-term replicas (one worker at a
// time) use it bare.
//
// The table in use is the active prefix of a retained buffer, sized for
// the entries it is about to hold; everything retained beyond the
// prefix is zero. Range, growth (a rehash into the retained spare
// buffer) and the clear at give-back therefore cost in proportion to
// the live entries, never to the capacity an earlier, larger query left
// behind — see the package comment for why that matters.
type Table struct {
	keys  []uint32
	vals  []*DocState
	n     int
	shift uint // 64 - log2(len(keys))
	skip  uint // top hash bits the owner spent choosing this table

	spareKeys []uint32 // what the last growth left: all zero
	spareVals []*DocState
}

// minTable is the smallest active prefix.
const minTable = 8

// hash is Fibonacci hashing: the product's top bits spread dense ids
// evenly. A Map takes the topmost for the stripe, the Table the next.
func hash(id model.DocID) uint64 { return uint64(id) * 0x9e3779b97f4a7c15 }

// tableSize returns the active prefix for hint entries: a power of two
// that they fill at most half.
func tableSize(hint int) int {
	size := minTable
	for size < 2*hint {
		size *= 2
	}
	return size
}

// init readies an empty (new or cleared) table with size slots.
func (t *Table) init(size int, skip uint) {
	if cap(t.spareKeys) > cap(t.keys) {
		t.keys, t.spareKeys = t.spareKeys, t.keys
		t.vals, t.spareVals = t.spareVals, t.vals
	}
	if cap(t.keys) < size {
		t.keys, t.vals = make([]uint32, size), make([]*DocState, size)
	}
	t.keys, t.vals = t.keys[:size], t.vals[:size]
	t.skip = skip
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
}

// clear empties the table by zeroing its active prefix.
func (t *Table) clear() {
	clear(t.keys)
	clear(t.vals)
	t.n = 0
}

// find returns the slot holding id, or else the empty slot it belongs in.
func (t *Table) find(h uint64, id model.DocID) (slot int, found bool) {
	key, mask := uint32(id)+1, len(t.keys)-1
	for i := int((h << t.skip) >> t.shift); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

func (t *Table) get(h uint64, id model.DocID) *DocState {
	if i, ok := t.find(h, id); ok {
		return t.vals[i]
	}
	return nil
}

// insert stores d, which is absent, in the empty slot find returned for
// it — after growing, and finding the slot again, if the table is three
// quarters full.
func (t *Table) insert(slot int, h uint64, d *DocState) {
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
		slot, _ = t.find(h, d.ID)
	}
	t.keys[slot], t.vals[slot] = uint32(d.ID)+1, d
	t.n++
}

// put inserts or replaces d and reports whether its id was present.
func (t *Table) put(h uint64, d *DocState) (existed bool) {
	i, ok := t.find(h, d.ID)
	if ok {
		t.vals[i] = d
	} else {
		t.insert(i, h, d)
	}
	return ok
}

// grow doubles the active prefix by rehashing into the spare buffer
// (allocated only if the retained one is too small) and leaves the old
// prefix, zeroed, as the next spare.
func (t *Table) grow() {
	keys, vals := t.keys, t.vals
	size := 2 * len(keys)
	if cap(t.spareKeys) >= size {
		t.keys, t.vals = t.spareKeys[:size], t.spareVals[:size]
	} else {
		t.keys, t.vals = make([]uint32, size), make([]*DocState, size)
	}
	t.shift--
	for i, k := range keys {
		if k != 0 {
			j, _ := t.find(hash(model.DocID(k-1)), model.DocID(k-1))
			t.keys[j], t.vals[j] = k, vals[i]
		}
	}
	clear(keys)
	clear(vals)
	t.spareKeys, t.spareVals = keys, vals
}

// each calls f on every entry until f returns false, which it reports
// by returning false itself.
func (t *Table) each(f func(d *DocState) bool) bool {
	for i, k := range t.keys {
		if k != 0 && !f(t.vals[i]) {
			return false
		}
	}
	return true
}

// Get returns the candidate for id, or nil.
func (t *Table) Get(id model.DocID) *DocState { return t.get(hash(id), id) }

// Put inserts or replaces the candidate for d.ID.
func (t *Table) Put(d *DocState) { t.put(hash(d.ID), d) }
