package faultinject

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// okAlg always succeeds; it exists to observe what the wrapper lets
// through.
type okAlg struct{ calls int }

func (a *okAlg) Name() string { return "ok" }
func (a *okAlg) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}
func (a *okAlg) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	a.calls++
	return model.TopK{{Doc: 1, Score: 1}}, topk.Stats{}, nil
}

func errSchedule(t *testing.T, plan Plan, shard, replica, n int) []bool {
	t.Helper()
	in := New(plan, shard, replica)
	alg := in.Wrap(&okAlg{})
	out := make([]bool, n)
	for i := range out {
		_, _, err := alg.Search(model.Query{}, topk.Options{})
		out[i] = err != nil
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("injected error not ErrInjected: %v", err)
		}
	}
	return out
}

func TestErrorScheduleDeterministicAndScoped(t *testing.T) {
	plan := Plan{Seed: 42, ErrRate: 0.3}
	a := errSchedule(t, plan, 1, 0, 400)
	b := errSchedule(t, plan, 1, 0, 400)
	fails, diffReplica := 0, false
	c := errSchedule(t, plan, 1, 1, 400)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: same seed+scope disagreed", i)
		}
		if a[i] != c[i] {
			diffReplica = true
		}
		if a[i] {
			fails++
		}
	}
	if !diffReplica {
		t.Fatal("replicas 0 and 1 drew identical schedules; scope not folded in")
	}
	if fails < 60 || fails > 180 {
		t.Fatalf("ErrRate 0.3 over 400 attempts produced %d failures", fails)
	}
}

func TestDarkFailsEveryAttempt(t *testing.T) {
	in := New(Plan{Seed: 7, Dark: true}, 0, 2)
	inner := &okAlg{}
	alg := in.Wrap(inner)
	for i := 0; i < 10; i++ {
		_, _, err := alg.Search(model.Query{}, topk.Options{})
		if !errors.Is(err, ErrDark) || !errors.Is(err, ErrInjected) {
			t.Fatalf("dark replica attempt %d: err = %v", i, err)
		}
	}
	if inner.calls != 0 {
		t.Fatalf("dark replica reached the inner algorithm %d times", inner.calls)
	}
	if got := in.InjectedErrors(); got != 10 {
		t.Fatalf("InjectedErrors = %d, want 10", got)
	}
}

func TestZeroPlanWrapsNothing(t *testing.T) {
	inner := &okAlg{}
	in := New(Plan{Seed: 1}, 0, 0)
	if in.Wrap(inner) != topk.Algorithm(inner) {
		t.Fatal("zero plan should return the algorithm unwrapped")
	}
	if in.Plan().Enabled() {
		t.Fatal("zero-rate plan reports Enabled")
	}
	if !(Plan{Dark: true}).Enabled() || !(Plan{ErrRate: 0.1}).Enabled() {
		t.Fatal("non-trivial plans report disabled")
	}
}

// storeIO reads every block of a file through a faulted store and
// returns the total simulated I/O charged.
func storeIO(t *testing.T, plan Plan, shard, replica int) time.Duration {
	t.Helper()
	cfg := iomodel.Config{
		BlockSize:   64,
		CacheBlocks: 4,
		SeqLatency:  time.Microsecond,
		RandLatency: 2 * time.Microsecond,
		NoSleep:     true,
	}
	s := iomodel.NewStore(cfg)
	data := make([]byte, 64*64)
	for i := range data {
		data[i] = byte(i)
	}
	h := s.AddFile("data", data)
	New(plan, shard, replica).BindStore(s)
	r := s.NewReader(h)
	for off := int64(0); off < int64(len(data)); off += 64 {
		_ = r.View(off, 64)
	}
	r.Settle()
	if got := s.Unsettled(); got != 0 {
		t.Fatalf("store left unsettled: %v", got)
	}
	return s.Snapshot().SimulatedIO
}

func TestStoreFaultsDeterministicAndCharged(t *testing.T) {
	plan := Plan{Seed: 99, LatencyRate: 0.25, Latency: 40 * time.Microsecond, StuckRate: 0.05, StuckLatency: 100 * time.Microsecond}
	base := storeIO(t, Plan{}, 0, 0)
	a := storeIO(t, plan, 0, 0)
	b := storeIO(t, plan, 0, 0)
	other := storeIO(t, plan, 0, 1)
	if a != b {
		t.Fatalf("same schedule charged differently: %v vs %v", a, b)
	}
	if a <= base {
		t.Fatalf("fault schedule charged no extra I/O: base %v, faulted %v", base, a)
	}
	if other == a {
		t.Fatal("replicas 0 and 1 drew identical I/O fault schedules")
	}
}

func TestCorruptFileIsDeterministicAndSelfInverse(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "postings.bin")
	orig := []byte("the quick brown fox jumps over the lazy dog")
	if err := os.WriteFile(p, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	off1, err := CorruptFile(p, 123)
	if err != nil {
		t.Fatal(err)
	}
	damaged, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(damaged) == string(orig) {
		t.Fatal("CorruptFile changed nothing")
	}
	if damaged[off1] != orig[off1]^0xa5 {
		t.Fatalf("reported offset %d does not hold the flipped byte", off1)
	}
	off2, err := CorruptFile(p, 123)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off1 {
		t.Fatalf("same seed chose offsets %d then %d", off1, off2)
	}
	restored, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(restored) != string(orig) {
		t.Fatal("double corruption did not restore the original bytes")
	}
	if _, err := CorruptFile(filepath.Join(dir, "missing"), 1); err == nil {
		t.Fatal("corrupting a missing file should error")
	}
}
