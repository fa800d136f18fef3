// Package stats provides the small statistical toolkit the experiment
// harness needs: means, percentiles (the paper reports mean and 95th
// percentile latencies) and time-stamped series for the
// recall-dynamics figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample is a collection of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration appends a duration observation in milliseconds.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation. The paper's "95% latency" (tail latency
// of the slowest 5% of queries) is Percentile(95).
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Point is one observation of a time series: a value recorded at an
// offset from the start of a run. The recall-dynamics figures (3f, 3g)
// are series of (elapsed time, recall) points.
type Point struct {
	At    time.Duration
	Value float64
}

// Series is an append-only time series.
type Series struct {
	pts []Point
}

// Record appends a point.
func (s *Series) Record(at time.Duration, v float64) {
	s.pts = append(s.pts, Point{At: at, Value: v})
}

// Points returns the recorded points in insertion order.
func (s *Series) Points() []Point { return s.pts }

// At returns the latest value recorded at or before t, or 0 if none.
// Series are assumed to be recorded in nondecreasing time order.
func (s *Series) At(t time.Duration) float64 {
	v := 0.0
	for _, p := range s.pts {
		if p.At > t {
			break
		}
		v = p.Value
	}
	return v
}

// MergeMean averages several series onto a common time grid: for each
// grid instant it takes every series' latest value and averages them.
// The recall-dynamics plots average 100 query runs this way.
func MergeMean(series []*Series, step time.Duration, horizon time.Duration) *Series {
	out := &Series{}
	if len(series) == 0 {
		return out
	}
	for t := time.Duration(0); t <= horizon; t += step {
		sum := 0.0
		for _, s := range series {
			sum += s.At(t)
		}
		out.Record(t, sum/float64(len(series)))
	}
	return out
}

// FmtMS formats a millisecond quantity the way the paper's tables do:
// integer ms with thousands separators for large values.
func FmtMS(ms float64) string {
	if ms >= 10000 {
		v := int64(ms + 0.5)
		return groupDigits(v)
	}
	if ms >= 100 {
		return fmt.Sprintf("%.0f", ms)
	}
	return fmt.Sprintf("%.1f", ms)
}

func groupDigits(v int64) string {
	s := fmt.Sprintf("%d", v)
	n := len(s)
	if n <= 3 {
		return s
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (n-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
