// Package membudget accounts for the candidate-state memory a query is
// allowed to allocate, reproducing the paper's out-of-memory results:
// on the 500M-document index, pNRA and pJASS "crashed due to lack of
// memory" and their table entries read N/A (Tables 2 and 3). Algorithms
// charge the budget per candidate-map entry; exceeding it aborts the
// query with ErrMemoryBudget, which the harness reports as N/A.
//
// A nil *Budget is valid and unlimited, so callers charge
// unconditionally.
package membudget

import (
	"errors"
	"sync/atomic"
)

// ErrMemoryBudget is returned when a query's candidate state exceeds
// its memory budget — the reproduction's deterministic stand-in for the
// paper's JVM OutOfMemoryError crashes.
var ErrMemoryBudget = errors.New("membudget: candidate memory budget exceeded")

// Budget tracks bytes used against a limit. Safe for concurrent use.
type Budget struct {
	limit int64
	used  atomic.Int64
	peak  atomic.Int64
}

// New creates a budget of limit bytes. limit <= 0 means unlimited.
func New(limit int64) *Budget { return &Budget{limit: limit} }

// Charge reserves n bytes, returning ErrMemoryBudget (and reserving
// nothing) if the limit would be exceeded. The reservation is a
// compare-and-swap, never add-then-roll-back, so Used() <= Limit() at
// every instant a concurrent observer can look. Charging a nil budget
// always succeeds.
func (b *Budget) Charge(n int64) error {
	if b == nil || b.limit <= 0 {
		return nil
	}
	for {
		used := b.used.Load()
		next := used + n
		if next > b.limit {
			return ErrMemoryBudget
		}
		if !b.used.CompareAndSwap(used, next) {
			continue
		}
		for {
			peak := b.peak.Load()
			if next <= peak || b.peak.CompareAndSwap(peak, next) {
				return nil
			}
		}
	}
}

// Release returns n bytes to the budget.
func (b *Budget) Release(n int64) {
	if b == nil || b.limit <= 0 {
		return
	}
	b.used.Add(-n)
}

// Used returns the currently reserved bytes.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak returns the high-water mark of reserved bytes.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// Limit returns the byte limit (0 = unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}
