package metrics

import (
	"testing"
	"time"
)

// TestWindowQuantileNearestRank pins the rule: the ⌈q·n⌉-th smallest
// remembered duration (the smallest when q·n < 1), 0 when empty, over
// the last windowSize durations only.
func TestWindowQuantileNearestRank(t *testing.T) {
	// record fills a window with 1..n ms, in descending order so the
	// ring's order is not the sorted order.
	record := func(n int) *Window {
		w := new(Window)
		for i := n; i >= 1; i-- {
			w.Record(time.Duration(i) * time.Millisecond)
		}
		return w
	}
	for _, c := range []struct {
		name string
		n    int
		q    float64
		want int // rank, in ms
	}{
		{"empty", 0, 0.5, 0},
		{"one entry", 1, 0.95, 1},
		{"q·n below 1", 10, 0.01, 1},
		{"partly filled, q·n integral", 10, 0.5, 5},
		{"partly filled, q·n fractional", 10, 0.55, 6},
		{"partly filled, q = 1", 10, 1, 10},
		{"q·n integral in decimal, not in binary", 25, 0.28, 7},
		{"full, q·n integral", windowSize, 0.25, 16},
		{"full, q·n fractional", windowSize, 0.95, 61},
		// 100 recorded: the window keeps the last 64 (64..1 ms), so the
		// earlier 100..65 ms are forgotten.
		{"wrapped, q·n integral", 100, 0.5, 32},
		{"wrapped, q·n fractional", 100, 0.9, 58},
		{"wrapped, q = 1", 100, 1, 64},
	} {
		got := record(c.n).Quantile(c.q)
		if want := time.Duration(c.want) * time.Millisecond; got != want {
			t.Errorf("%s: Quantile(%v) over %d = %v, want %v", c.name, c.q, c.n, got, want)
		}
	}
}
