package bench

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// ASCII renderings of the figure data, so a terminal-only reproduction
// can still *see* the shapes the paper plots. One chart per variant
// would be unreadable side by side; instead each variant becomes a row
// of scaled glyphs over the shared x-axis, with the y-scale chosen per
// chart (log₁₀ for latency, linear for recall).

const plotGlyphs = " .:-=+*#%@"

// PlotSweep renders a latency/throughput sweep as a compact heat-row
// chart: one row per variant, one column per x value, glyph intensity
// proportional to log10 of the value. N/A cells render as '!'.
func PlotSweep(title string, points []SweepPoint, pick func(LatencyCell) float64) string {
	if len(points) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)

	// Global log range across all cells.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		for _, c := range p.Cells {
			if c.NA {
				continue
			}
			v := pick(c)
			if v <= 0 {
				continue
			}
			l := math.Log10(v)
			lo = math.Min(lo, l)
			hi = math.Max(hi, l)
		}
	}
	if math.IsInf(lo, 1) {
		return b.String()
	}
	if hi-lo < 1e-9 {
		hi = lo + 1
	}

	fmt.Fprintf(&b, "%-14s", "x:")
	for _, p := range points {
		fmt.Fprintf(&b, "%4d", p.X)
	}
	b.WriteString("\n")
	for ci := range points[0].Cells {
		fmt.Fprintf(&b, "%-14s", points[0].Cells[ci].Label)
		for _, p := range points {
			c := p.Cells[ci]
			if c.NA {
				b.WriteString("   !")
				continue
			}
			v := pick(c)
			var g byte = plotGlyphs[0]
			if v > 0 {
				f := (math.Log10(v) - lo) / (hi - lo)
				idx := int(f * float64(len(plotGlyphs)-1))
				if idx < 0 {
					idx = 0
				}
				if idx >= len(plotGlyphs) {
					idx = len(plotGlyphs) - 1
				}
				g = plotGlyphs[idx]
			}
			fmt.Fprintf(&b, "   %c", g)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(glyph scale: log10, ' '=%.2g .. '@'=%.2g)\n",
		math.Pow(10, lo), math.Pow(10, hi))
	return b.String()
}

// PlotDynamics renders recall-vs-time curves as one sparkline row per
// variant: recall in [0,1] mapped onto the glyph ramp.
func PlotDynamics(title string, series []DynamicsSeries, step, horizon time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	cols := int(horizon/step) + 1
	if cols > 72 {
		cols = 72
	}
	for _, s := range series {
		fmt.Fprintf(&b, "%-14s", s.Label)
		if s.NA {
			b.WriteString("N/A\n")
			continue
		}
		for i := 0; i < cols; i++ {
			t := time.Duration(i) * step
			v := s.Series.At(t)
			idx := int(v * float64(len(plotGlyphs)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(plotGlyphs) {
				idx = len(plotGlyphs) - 1
			}
			b.WriteByte(plotGlyphs[idx])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(x: 0..%v in %v steps; glyph: recall 0=' ' 1='@')\n", horizon, step)
	return b.String()
}

// sparkline renders a small numeric series on the glyph ramp, scaled
// from its minimum (' ') to its maximum ('@').
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 1e-12 {
		hi = lo + 1
	}
	var b strings.Builder
	for _, v := range vals {
		idx := int((v - lo) / (hi - lo) * float64(len(plotGlyphs)-1))
		b.WriteByte(plotGlyphs[idx])
	}
	return b.String()
}
