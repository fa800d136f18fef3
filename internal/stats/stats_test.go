package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleMean(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3, 4} {
		s.Add(x)
	}
	if got := s.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if s.N() != 4 {
		t.Errorf("N = %d, want 4", s.N())
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Percentile(95) != 0 {
		t.Error("empty sample should return zeros")
	}
}

func TestPercentileOrdering(t *testing.T) {
	var s Sample
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v, want 100", got)
	}
	p50 := s.Percentile(50)
	if p50 < 50 || p50 > 51 {
		t.Errorf("P50 = %v, want ~50.5", p50)
	}
	p95 := s.Percentile(95)
	if p95 < 95 || p95 > 96 {
		t.Errorf("P95 = %v, want ~95", p95)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, aRaw, bRaw uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		var s Sample
		for _, x := range xs {
			s.Add(x)
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return s.Percentile(a) <= s.Percentile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(250 * time.Millisecond)
	if got := s.Mean(); got != 250 {
		t.Errorf("AddDuration mean = %v ms, want 250", got)
	}
}

func TestSeriesAt(t *testing.T) {
	var s Series
	s.Record(10*time.Millisecond, 0.5)
	s.Record(20*time.Millisecond, 0.8)
	s.Record(30*time.Millisecond, 1.0)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0},
		{10 * time.Millisecond, 0.5},
		{15 * time.Millisecond, 0.5},
		{25 * time.Millisecond, 0.8},
		{time.Second, 1.0},
	}
	for _, c := range cases {
		if got := s.At(c.at); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestMergeMean(t *testing.T) {
	a, b := &Series{}, &Series{}
	a.Record(0, 0)
	a.Record(10*time.Millisecond, 1.0)
	b.Record(0, 0)
	b.Record(20*time.Millisecond, 1.0)
	m := MergeMean([]*Series{a, b}, 10*time.Millisecond, 20*time.Millisecond)
	pts := m.Points()
	if len(pts) != 3 {
		t.Fatalf("merged points = %d, want 3", len(pts))
	}
	if pts[1].Value != 0.5 {
		t.Errorf("merged value at 10ms = %v, want 0.5", pts[1].Value)
	}
	if pts[2].Value != 1.0 {
		t.Errorf("merged value at 20ms = %v, want 1.0", pts[2].Value)
	}
}

func TestMergeMeanEmpty(t *testing.T) {
	m := MergeMean(nil, time.Millisecond, time.Second)
	if len(m.Points()) != 0 {
		t.Error("merging no series should yield empty series")
	}
}

func TestFmtMS(t *testing.T) {
	cases := []struct {
		ms   float64
		want string
	}{
		{0.5, "0.5"},
		{12.34, "12.3"},
		{860, "860"},
		{13291, "13,291"},
		{54343, "54,343"},
		{1234567, "1,234,567"},
	}
	for _, c := range cases {
		if got := FmtMS(c.ms); got != c.want {
			t.Errorf("FmtMS(%v) = %q, want %q", c.ms, got, c.want)
		}
	}
}
