package bench

import (
	"testing"
	"time"

	"sparta/internal/corpus"
	"sparta/internal/iomodel"
)

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	spec := corpus.Spec{
		Name: "tiny", Docs: 1500, Vocab: 400, ZipfS: 1.0,
		MeanDocLen: 40, MinDocLen: 5, Seed: 12,
	}
	cfg := iomodel.DefaultConfig()
	cfg.NoSleep = true
	env, err := NewEnv(spec, cfg, EnvOptions{K: 20, QueriesPerLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvBuild(t *testing.T) {
	env := tinyEnv(t)
	if env.Mem.NumDocs() != 1500 || env.Disk.NumDocs() != 1500 {
		t.Fatal("env sizes wrong")
	}
	if env.Sets.MaxLen() != 12 {
		t.Fatal("query sets incomplete")
	}
	if env.Describe() == "" {
		t.Error("empty description")
	}
}

func TestExactCacheStable(t *testing.T) {
	env := tinyEnv(t)
	q := env.Sets.Length(3)[0]
	a := env.Exact(q)
	b := env.Exact(q)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatal("exact cache broken")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cached exact result differs")
		}
	}
}

func TestRunTable2Smoke(t *testing.T) {
	env := tinyEnv(t)
	p := env.RunTable2(2, 4)
	if len(p.Cells) != 6 {
		t.Fatalf("table 2 cells = %d, want 6", len(p.Cells))
	}
	for _, c := range p.Cells {
		if c.NA {
			t.Errorf("%s N/A at tiny scale", c.Label)
			continue
		}
		if c.Recall != 1 {
			t.Errorf("%s exact recall %v", c.Label, c.Recall)
		}
		if c.Postings == 0 {
			t.Errorf("%s no postings counted", c.Label)
		}
	}
	out := FormatTable("Table 2", "mean ms", p, func(c LatencyCell) float64 { return c.Mean })
	if out == "" {
		t.Error("empty formatting")
	}
}

func TestRunTable3Smoke(t *testing.T) {
	env := tinyEnv(t)
	p := env.RunTable3(DefaultTuning(), 2, 4)
	if len(p.Cells) != 8 {
		t.Fatalf("table 3 cells = %d, want 8", len(p.Cells))
	}
	for _, c := range p.Cells {
		if !c.NA && (c.Recall < 0 || c.Recall > 1) {
			t.Errorf("%s recall %v", c.Label, c.Recall)
		}
	}
	_ = FormatRecallTable("Table 3", p)
}

func TestRunLatencySweepSmoke(t *testing.T) {
	env := tinyEnv(t)
	pts := env.RunLatencySweep(env.HighVariants(DefaultTuning())[:2], []int{1, 4}, 2)
	if len(pts) != 2 || pts[0].X != 1 || pts[1].X != 4 {
		t.Fatalf("sweep shape: %+v", pts)
	}
	_ = FormatSweep("fig", "m", pts, func(c LatencyCell) float64 { return c.Mean })
}

func TestRunParallelismSweepSmoke(t *testing.T) {
	env := tinyEnv(t)
	vs := []Variant{env.Variant(AlgoSparta, "exact", DefaultTuning())}
	pts := env.RunParallelismSweep(vs, []int{1, 2}, 2)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Cells[0].NA {
			t.Errorf("threads=%d N/A", p.X)
		}
	}
}

func TestRunRecallDynamicsSmoke(t *testing.T) {
	env := tinyEnv(t)
	vs := []Variant{
		env.Variant(AlgoSparta, "exact", DefaultTuning()),
		env.Variant(AlgoPBMW, "exact", DefaultTuning()),
	}
	ds := env.RunRecallDynamics(vs, 2, 4, time.Millisecond, 20*time.Millisecond)
	if len(ds) != 2 {
		t.Fatalf("series = %d", len(ds))
	}
	for _, s := range ds {
		if s.NA {
			t.Errorf("%s N/A", s.Label)
			continue
		}
		pts := s.Series.Points()
		if len(pts) == 0 {
			t.Errorf("%s empty series", s.Label)
			continue
		}
		// Recall trends upward for exact runs. It is not strictly
		// monotone: the NRA-family heap ranks by lower bounds, so a
		// partially-scored document can be evicted when better ones
		// arrive, transiently dipping recall. Allow small dips.
		best := 0.0
		for i := range pts {
			if pts[i].Value < best-0.25 {
				t.Errorf("%s recall dropped far below its peak at %v (%v < %v)",
					s.Label, pts[i].At, pts[i].Value, best)
				break
			}
			if pts[i].Value > best {
				best = pts[i].Value
			}
		}
	}
	_ = FormatDynamics("fig3f", ds, time.Millisecond, 20*time.Millisecond)
}

func TestRunThroughputSmoke(t *testing.T) {
	env := tinyEnv(t)
	vs := env.HighVariants(DefaultTuning())[:2]
	cells := env.RunThroughput(vs, 4, 10)
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if !c.NA && c.QPS <= 0 {
			t.Errorf("%s qps %v", c.Label, c.QPS)
		}
	}
	_ = FormatThroughput("Table 4", cells)
}

func TestRunThroughputByLengthSmoke(t *testing.T) {
	env := tinyEnv(t)
	vs := []Variant{env.Variant(AlgoSparta, "high", DefaultTuning())}
	pts := env.RunThroughputByLength(vs, []int{2, 6}, 4, 6)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestMakeAlgorithmAll(t *testing.T) {
	env := tinyEnv(t)
	for _, id := range AllAlgos {
		a := MakeAlgorithm(id, env.Mem)
		if a.Name() == "" {
			t.Errorf("%s has empty name", id)
		}
	}
	if a := env.Algorithm(AlgoSNRA); a.Name() != "sNRA" {
		t.Errorf("the environment's sNRA is named %q", a.Name())
	}
}

func TestMakeAlgorithmUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown algorithm did not panic")
		}
	}()
	MakeAlgorithm("nope", nil)
}
