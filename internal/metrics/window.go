package metrics

import (
	"math"
	"slices"
	"sync"
	"time"
)

// windowSize is how many recent durations a Window remembers: small and
// recent beats large and stale under shifting load.
const windowSize = 64

// Window is a ring of the last windowSize recorded durations with a
// quantile over them — the estimate behind the Searcher's load shedding
// and the shard group's hedge delay. The zero value is empty and ready
// to use; it is safe for concurrent use.
type Window struct {
	mu  sync.Mutex
	buf [windowSize]time.Duration
	n   int // filled entries (≤ windowSize)
	pos int // next write
}

// Record remembers d, forgetting the oldest duration once the window
// is full.
func (w *Window) Record(d time.Duration) {
	w.mu.Lock()
	w.buf[w.pos] = d
	w.pos = (w.pos + 1) % windowSize
	w.n = min(w.n+1, windowSize)
	w.mu.Unlock()
}

// Quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of the
// remembered durations: the ⌈q·n⌉-th smallest of n, and the smallest
// when q·n < 1. It returns 0 when nothing has been recorded. q·n is
// taken to 1e-9 so that a decimal q whose product with n is a whole
// number in exact arithmetic (0.28 × 25) is not pushed up a rank by
// binary rounding.
func (w *Window) Quantile(q float64) time.Duration {
	var tmp [windowSize]time.Duration
	w.mu.Lock()
	n := w.n
	copy(tmp[:n], w.buf[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0
	}
	s := tmp[:n]
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	return s[min(max(rank, 1), n)-1]
}
