// Command benchmark is the repository's one benchmark: it builds its
// inputs from a seed, runs six named workloads against the retrieval
// stack, checks every answer, and prints every metric BENCHMARK.json
// names - end-to-end numbers from an untraced run, per-layer numbers
// from a traced one. It measures each layer from outside, by calling
// its public functions, wrapping the values it hands in with timing
// shims, and reading the counters and observer hooks the layers
// export. README.md has the workloads, the metrics and the list of
// repository functions it calls, which later changes must keep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed     = flag.Uint64("seed", 1, "seed of the arrival logs (which queries arrive, in which order)")
		seconds  = flag.Float64("seconds", 6, "measured seconds per workload, split into 5 rounds")
		trace    = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics; 0 prints the end-to-end metrics")
		out      = flag.String("out", "", "write the full JSON report to this file (default out/report.json)")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
		soaker   = flag.Bool("soak", false, "internal: run as a CPU soaker process (see soak.go)")
	)
	flag.Parse()
	if *soaker {
		soak()
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two report files, got %d", flag.NArg()))
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, sc: defaultScale(), outDir: "out"}
	if *workload == "all" {
		cfg.workloads = workloads
	} else {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (want all or one of %s)", *workload, workloadNames()))
		}
		cfg.workloads = []spec{w}
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	stopSoakers := startSoakers()
	rep, err := runBenchmark(cfg)
	stopSoakers()
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.outDir, "report.json")
	}
	if err := writeReport(path, rep); err != nil {
		fatal(err)
	}
	printTable(os.Stdout, rep)
	if len(rep.Workloads) == 1 {
		// The line a driver reads: one workload, its metrics, last.
		fmt.Println(resultLine(rep.Workloads[0]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// metricsOf is the workload's metric set for the kind of run it was.
func (wr workloadReport) metricsOf() map[string]value {
	if wr.Layers != nil {
		return wr.Layers
	}
	return wr.EndToEnd
}

// resultLine is one workload's outcome as a single JSON object:
// whether every check passed, the operations attempted and failed, and
// each metric's median with its unit.
func resultLine(wr workloadReport) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]metric{}}
	for name, v := range wr.metricsOf() {
		line.Metrics[name] = metric{v.Median, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

func printTable(f *os.File, rep *report) {
	h := rep.Host
	fmt.Fprintf(f, "host: %d cpus, GOMAXPROCS %d, %s, commit %s; seed %d, %.3g s per workload, trace %v\n",
		h.CPUs, h.GOMAXPROCS, h.Go, h.Commit, rep.Seed, rep.Seconds, rep.Trace)
	tw := tabwriter.NewWriter(f, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tmin\tmax\tunit")
	for _, wr := range rep.Workloads {
		ms := wr.metricsOf()
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := ms[n]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\n", wr.Name, n, v.Median, v.Min, v.Max, v.Unit)
		}
		share := ratio(float64(wr.Failed), float64(wr.Attempted))
		fmt.Fprintf(tw, "%s\tfailed_share\t%.6g\t\t\t%d of %d\n", wr.Name, share, wr.Failed, wr.Attempted)
	}
	tw.Flush()
	for _, wr := range rep.Workloads {
		for _, p := range wr.Problems {
			fmt.Fprintf(f, "PROBLEM %s: %s\n", wr.Name, p)
		}
	}
}
