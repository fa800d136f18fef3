package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// compareReports prints, for every workload and end-to-end metric the
// two reports share, both medians, how much worse the second is than
// the first as a share of the first, the bound, and a verdict:
//
//	ok          within the bound, and the rounds of each run agree with
//	            each other (quartile spread) to within the bound too
//	worse       beyond the bound, and either the rounds are that steady
//	            or every round of b is worse than every round of a
//	unresolved  the rounds of a run disagree by more than the bound, so
//	            two runs cannot settle the question: run more
//
// A workload whose rounds are stages of one growing index has no
// spread between rounds to speak of, and is judged on the bound alone.
//
// It reports whether any pairing was worse.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	other := map[string]workloadReport{}
	for _, wr := range b.Workloads {
		other[wr.Name] = wr
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tround spread\tverdict")
	anyWorse := false
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			worseBy := ratio(vb.Median-va.Median, va.Median)
			disjoint := vb.Min > va.Max
			if m.better == "higher" {
				worseBy = -worseBy
				disjoint = vb.Max < va.Min
			}
			spread := max(va.spread(), vb.spread())
			if wa.Pooled {
				spread = 0
			}
			verdict := "unresolved"
			switch {
			case worseBy <= m.bound && spread <= m.bound:
				verdict = "ok"
			case worseBy > m.bound && (spread <= m.bound || disjoint):
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				wa.Name, m.name, va.Median, vb.Median, 100*worseBy, 100*m.bound, 100*spread, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t\t0\t\tworse\n", wa.Name, wa.Failed, wb.Failed)
			anyWorse = true
		}
	}
	return anyWorse, tw.Flush()
}
