package bench

import (
	"strings"
	"testing"
	"time"

	"sparta/internal/stats"
)

func TestPlotSweep(t *testing.T) {
	pts := []SweepPoint{
		{X: 1, Cells: []LatencyCell{{Label: "A", Mean: 1}, {Label: "B", Mean: 100}}},
		{X: 2, Cells: []LatencyCell{{Label: "A", Mean: 10}, {Label: "B", NA: true}}},
	}
	out := PlotSweep("t", pts, func(c LatencyCell) float64 { return c.Mean })
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Fatalf("labels missing:\n%s", out)
	}
	if !strings.Contains(out, "!") {
		t.Errorf("N/A marker missing:\n%s", out)
	}
	// The largest value must render with the densest glyph.
	if !strings.Contains(out, "@") {
		t.Errorf("max glyph missing:\n%s", out)
	}
}

func TestPlotSweepEmpty(t *testing.T) {
	if PlotSweep("t", nil, func(c LatencyCell) float64 { return c.Mean }) != "" {
		t.Error("empty sweep should render empty")
	}
	// All-NA points must not panic.
	pts := []SweepPoint{{X: 1, Cells: []LatencyCell{{Label: "A", NA: true}}}}
	_ = PlotSweep("t", pts, func(c LatencyCell) float64 { return c.Mean })
}

func TestPlotDynamics(t *testing.T) {
	var s stats.Series
	s.Record(0, 0)
	s.Record(5*time.Millisecond, 0.5)
	s.Record(10*time.Millisecond, 1.0)
	ds := []DynamicsSeries{
		{Label: "X", Series: &s},
		{Label: "Y", NA: true},
	}
	out := PlotDynamics("t", ds, time.Millisecond, 10*time.Millisecond)
	if !strings.Contains(out, "X") || !strings.Contains(out, "N/A") {
		t.Fatalf("output:\n%s", out)
	}
	// Ends at full recall: densest glyph present.
	if !strings.Contains(out, "@") {
		t.Errorf("full-recall glyph missing:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if sparkline(nil) != "" {
		t.Error("empty sparkline")
	}
	out := sparkline([]float64{0, 0.5, 1})
	if len(out) != 3 {
		t.Fatalf("len %d", len(out))
	}
	if out[0] != ' ' || out[2] != '@' {
		t.Errorf("scaling wrong: %q", out)
	}
	// Constant series must not divide by zero.
	_ = sparkline([]float64{3, 3, 3})
}
