package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"sparta/internal/corpus"
)

// toyScale shrinks every input so the whole pipeline - set-up, both
// loops, all six workloads, checks, micro-timings - runs in seconds.
func toyScale() scale {
	return scale{
		corpus: corpus.Spec{
			Name: "toy", Docs: 2000, Vocab: 2000, ZipfS: 1.0,
			MeanDocLen: 60, MinDocLen: 8, QualitySigma: 1.0, Seed: 7,
		},
		perLength:    4,
		longPool:     8,
		liveSeedDocs: 200,
		checkQueries: 20,
		setupReps:    1,
		rounds:       2,
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the tables the
// program prints from: same workloads, same metrics, same units,
// directions and bounds.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f := bf.Workloads[i]; f.Name != w.name || f.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the program %q: %q", i, f, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		f := bf.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better || f.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, f, m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if f := bf.PerLayer[i]; f.Name != m.name || f.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, f, m)
		}
	}
}

// TestPipeline runs every workload at toy scale, untraced and traced,
// and checks the shape of what comes out: every metric the benchmark
// declares, once per workload, finite, under a well-formed name, with
// the operation counts beside it; every answer correct; the span file
// written, and every span tree adding up.
func TestPipeline(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, traced := range []bool{false, true} {
		dir := t.TempDir()
		rep, err := runBenchmark(config{
			workloads: workloads, seed: 3, seconds: 0.12, trace: traced, sc: toyScale(), outDir: dir,
		})
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(rep.Workloads) != len(workloads) {
			t.Fatalf("traced=%v: %d workloads reported, want %d", traced, len(rep.Workloads), len(workloads))
		}
		for i, wr := range rep.Workloads {
			if wr.Name != workloads[i].name {
				t.Errorf("workload %d is %q, want %q", i, wr.Name, workloads[i].name)
			}
			if wr.Attempted < 1 || wr.Failed != 0 || !wr.Correct {
				t.Errorf("%s traced=%v: attempted %d, failed %d, correct %v, problems %v",
					wr.Name, traced, wr.Attempted, wr.Failed, wr.Correct, wr.Problems)
			}
			got := wr.metricsOf()
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wr.Name, traced, len(got), len(want))
			}
			for _, m := range want {
				v, ok := got[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wr.Name, traced, m.name)
				case math.IsNaN(v.Median) || math.IsInf(v.Median, 0):
					t.Errorf("%s: metric %s is %v", wr.Name, m.name, v.Median)
				case v.Unit != m.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", wr.Name, m.name, v.Unit, m.unit)
				case !traced && v.Median <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", wr.Name, m.name, v.Median)
				}
				if !nameRE.MatchString(m.name) {
					t.Errorf("metric name %q is malformed", m.name)
				}
			}
			var line struct {
				Correct           *bool
				Attempted, Failed *int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(resultLine(wr)), &line); err != nil {
				t.Fatalf("%s: result line: %v", wr.Name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
				t.Errorf("%s: result line lacks a key or a metric: %s", wr.Name, resultLine(wr))
			}
			if traced {
				checkSpans(t, filepath.Join(dir, "spans-"+wr.Name+".jsonl"))
			}
		}
		if traced {
			continue
		}
		// A report never compares worse than itself.
		path := filepath.Join(dir, "r.json")
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		worse, err := compareReports(&table, path, path)
		if err != nil || worse {
			t.Errorf("comparing a report with itself: worse=%v err=%v\n%s", worse, err, table.String())
		}
	}
}

// checkSpans reads one workload's span file and checks that each
// query's spans form a tree in which children lie inside their parent
// and a parent's self time plus what its children cover is the parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byQuery := map[int64][]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		byQuery[s.Query] = append(byQuery[s.Query], s)
	}
	if len(byQuery) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for q, spans := range byQuery {
		if spans[0].Name != "query" || spans[0].Parent != -1 || len(spans) < 3 {
			t.Fatalf("%s query %d: malformed tree %+v", path, q, spans)
		}
		self := selfTimes(spans)
		for i, s := range spans {
			if s.ID != i || s.End < s.Start {
				t.Fatalf("%s query %d: span %+v out of order", path, q, s)
			}
			if s.Parent >= 0 {
				p := spans[s.Parent]
				if s.Start < p.Start || s.End > p.End {
					t.Fatalf("%s query %d: span %+v leaves its parent %+v", path, q, s, p)
				}
			}
			if self[i] < 0 || self[i] > s.dur() {
				t.Fatalf("%s query %d: span %s has self time %v of %v", path, q, s.Name, self[i], s.dur())
			}
		}
	}
}
