// Replica-set serving: transient-error retries failing over to the
// next replica, hedges racing a different replica, dark-primary
// promotion gated on artifact verification, exact half-open probe
// admission under a concurrent herd, and manifest verification at open
// time.
package shardserve_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/core"
	"sparta/internal/diskindex"
	"sparta/internal/faultinject"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/shardserve"
	"sparta/internal/topk"
)

func TestRetryFailsOverToNextReplica(t *testing.T) {
	x := algotest.SmallIndex(t, 11)
	boom := errors.New("transient")
	r0 := &fakeAlg{name: "r0"}
	r0.err.Store(&boom)
	r1 := &fakeAlg{name: "r1"}
	r1.err.Store(&boom)
	r2 := &fakeAlg{name: "r2", res: model.TopK{{Doc: 7, Score: 77}}}
	g, err := shardserve.New(shardserve.Config{RetryBackoff: 3 * time.Millisecond},
		shardserve.Shard{Replicas: []shardserve.Replica{
			{View: x, Alg: r0}, {View: x, Alg: r1}, {View: x, Alg: r2},
		}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, st, err := g.SearchShards(context.Background(), model.Query{0}, topk.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	run := st.Shards[0]
	if run.Dropped || run.Err != nil {
		t.Fatalf("query dropped despite a healthy replica: %+v", run)
	}
	if run.Replica != 2 || run.Retries != 2 {
		t.Fatalf("served by replica %d after %d retries, want replica 2 after 2", run.Replica, run.Retries)
	}
	if st.Retries != 2 {
		t.Fatalf("aggregate retries = %d, want 2", st.Retries)
	}
	if len(got) != 1 || got[0].Doc != 7 {
		t.Fatalf("result = %v, want replica 2's (doc 7)", got)
	}
	// Two backoffs at 3ms and 6ms precede the successful attempt (with
	// slack for timer granularity).
	if elapsed < 8*time.Millisecond {
		t.Errorf("query finished in %v, want ~9ms of retry backoff", elapsed)
	}
	if c := g.Counters(0); c.Retries != 2 {
		t.Fatalf("shard counter retries = %d, want 2", c.Retries)
	}
	algotest.AssertSettled(t, "after retried query", g)
}

func TestRetryDisabledFailsFast(t *testing.T) {
	x := algotest.SmallIndex(t, 12)
	boom := errors.New("transient")
	r0 := &fakeAlg{name: "r0"}
	r0.err.Store(&boom)
	r1 := &fakeAlg{name: "r1", res: model.TopK{{Doc: 1, Score: 10}}}
	g, err := shardserve.New(shardserve.Config{RetryMax: -1},
		shardserve.Shard{Replicas: []shardserve.Replica{{View: x, Alg: r0}, {View: x, Alg: r1}}})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := g.SearchShards(context.Background(), model.Query{0}, topk.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if run := st.Shards[0]; !run.Dropped || run.Err == nil || run.Retries != 0 {
		t.Fatalf("run = %+v, want dropped with error and no retries", run)
	}
	if r1.calls.Load() != 0 {
		t.Fatalf("replica 1 saw %d calls with retries disabled", r1.calls.Load())
	}
}

func TestRetryBackoffRespectsShardDeadline(t *testing.T) {
	x := algotest.SmallIndex(t, 13)
	boom := errors.New("transient")
	r0 := &fakeAlg{name: "r0"}
	r0.err.Store(&boom)
	r1 := &fakeAlg{name: "r1", res: model.TopK{{Doc: 1, Score: 10}}}
	g, err := shardserve.New(shardserve.Config{
		RetryBackoff: 250 * time.Millisecond,
		ShardTimeout: 5 * time.Millisecond,
	}, shardserve.Shard{Replicas: []shardserve.Replica{{View: x, Alg: r0}, {View: x, Alg: r1}}})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := g.SearchShards(context.Background(), model.Query{0}, topk.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	run := st.Shards[0]
	// The backoff outlives the shard deadline: the retry is abandoned
	// mid-wait and the shard reports the failed first attempt.
	if !run.Dropped || run.Err == nil || run.Replica != 0 {
		t.Fatalf("run = %+v, want dropped with replica 0's error", run)
	}
	if run.Retries != 1 {
		t.Fatalf("retries = %d, want 1 (spent on the abandoned backoff)", run.Retries)
	}
	if r1.calls.Load() != 0 {
		t.Fatalf("replica 1 saw %d calls, want 0 (deadline expired during backoff)", r1.calls.Load())
	}
}

func TestRetryWrapsAroundWithBudgetLeft(t *testing.T) {
	x := algotest.SmallIndex(t, 14)
	// Both replicas fail their first call, then heal: a budget beyond
	// the replica count lets the retry loop start a fresh round.
	r0 := &countdownAlg{fails: 1, res: model.TopK{{Doc: 9, Score: 99}}}
	r1 := &countdownAlg{fails: 1, res: model.TopK{{Doc: 8, Score: 88}}}
	g, err := shardserve.New(shardserve.Config{RetryMax: 4, RetryBackoff: -1},
		shardserve.Shard{Replicas: []shardserve.Replica{{View: x, Alg: r0}, {View: x, Alg: r1}}})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := g.SearchShards(context.Background(), model.Query{0}, topk.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	run := st.Shards[0]
	if run.Dropped || run.Err != nil {
		t.Fatalf("run = %+v, want served on the wrap-around round", run)
	}
	if run.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (r0 fail, r1 fail, r0 again succeeds)", run.Retries)
	}
	if run.Replica != 0 || len(got) != 1 || got[0].Doc != 9 {
		t.Fatalf("served by replica %d with %v, want replica 0's doc 9", run.Replica, got)
	}
}

// countdownAlg fails its first `fails` calls, then succeeds.
type countdownAlg struct {
	fails int64
	calls atomic.Int64
	res   model.TopK
}

func (a *countdownAlg) Name() string { return "countdown" }

func (a *countdownAlg) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

func (a *countdownAlg) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	if a.calls.Add(1) <= a.fails {
		return nil, topk.Stats{StopReason: "error"}, errors.New("transient")
	}
	return a.res, topk.Stats{StopReason: "exhausted"}, nil
}

func TestHedgeRacesDifferentReplica(t *testing.T) {
	x := algotest.SmallIndex(t, 15)
	slow := &fakeAlg{name: "slow", delay: 200 * time.Millisecond, res: model.TopK{{Doc: 1, Score: 10}}}
	fast := &fakeAlg{name: "fast", res: model.TopK{{Doc: 2, Score: 20}}}
	g, err := shardserve.New(shardserve.Config{
		Hedge: shardserve.HedgeConfig{Enabled: true, MinDelay: 5 * time.Millisecond},
	}, shardserve.Shard{Replicas: []shardserve.Replica{{View: x, Alg: slow}, {View: x, Alg: fast}}})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := g.SearchShards(context.Background(), model.Query{0}, topk.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	run := st.Shards[0]
	if !run.Hedged || !run.HedgeWon || run.Replica != 1 {
		t.Fatalf("run = %+v, want the hedge on replica 1 to win", run)
	}
	if len(got) != 1 || got[0].Doc != 2 {
		t.Fatalf("result = %v, want the second replica's (doc 2)", got)
	}
	if slow.cancelled.Load() != 1 {
		t.Fatalf("losing primary cancelled %d times, want 1 (joined)", slow.cancelled.Load())
	}
	c := g.Counters(0)
	if c.Replicas[0].Queries != 1 || c.Replicas[1].Queries != 1 {
		t.Fatalf("replica query counters = %+v, want one attempt each", c.Replicas)
	}
}

func TestDarkPrimaryPromotesVerifiedReplica(t *testing.T) {
	x := algotest.SmallIndex(t, 21)
	boom := errors.New("replica dark")
	dark := &fakeAlg{name: "dark"}
	dark.err.Store(&boom)
	bad := &fakeAlg{name: "bad", res: model.TopK{{Doc: 6, Score: 66}}}
	good := &fakeAlg{name: "good", res: model.TopK{{Doc: 7, Score: 77}}}
	var badVerifies, goodVerifies atomic.Int64
	g, err := shardserve.New(shardserve.Config{TripAfter: 1, RetryBackoff: -1},
		shardserve.Shard{Replicas: []shardserve.Replica{
			{View: x, Alg: dark},
			{View: x, Alg: bad, Verify: func() error {
				badVerifies.Add(1)
				return errors.New("digest mismatch")
			}},
			{View: x, Alg: good, Verify: func() error {
				goodVerifies.Add(1)
				return nil
			}},
		}})
	if err != nil {
		t.Fatal(err)
	}
	q, opts := model.Query{0}, topk.Options{K: 5}

	// Query 1: the dark primary fails and trips; the retry serves from
	// replica 1 (its corruption is unknown until promotion verifies it).
	got, st, err := g.SearchShards(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if run := st.Shards[0]; run.Replica != 1 || run.Retries != 1 || run.Dropped {
		t.Fatalf("query 1 run = %+v, want served by replica 1 after one retry", run)
	}
	if len(got) != 1 || got[0].Doc != 6 {
		t.Fatalf("query 1 result = %v, want replica 1's (doc 6)", got)
	}

	// Promotion ran after the query: replica 1 failed verification and
	// is permanently excluded; replica 2 verified clean and is primary.
	c := g.Counters(0)
	if c.Primary != 2 || c.Promotions != 1 || c.VerifyFailures != 1 {
		t.Fatalf("counters = %+v, want primary 2 with 1 promotion and 1 verify failure", c)
	}
	if c.LastVerifyError == "" || !strings.Contains(c.LastVerifyError, "digest mismatch") {
		t.Fatalf("LastVerifyError = %q, want the digest mismatch", c.LastVerifyError)
	}
	states := []string{c.Replicas[0].State, c.Replicas[1].State, c.Replicas[2].State}
	if states[0] != "open" || states[1] != "corrupt" || states[2] != "closed" {
		t.Fatalf("replica states = %v, want [open corrupt closed]", states)
	}
	if !c.Replicas[2].Primary || c.Replicas[1].Primary {
		t.Fatalf("primary flags = %+v, want replica 2", c.Replicas)
	}
	if badVerifies.Load() != 1 || goodVerifies.Load() != 1 {
		t.Fatalf("verify calls = %d/%d, want 1/1", badVerifies.Load(), goodVerifies.Load())
	}

	// Query 2 serves from the new primary directly — no retries, and the
	// corrupt replica never sees traffic again.
	badCalls := bad.calls.Load()
	got, st, err = g.SearchShards(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if run := st.Shards[0]; run.Replica != 2 || run.Retries != 0 || run.Dropped {
		t.Fatalf("query 2 run = %+v, want served by the promoted primary", run)
	}
	if len(got) != 1 || got[0].Doc != 7 {
		t.Fatalf("query 2 result = %v, want replica 2's (doc 7)", got)
	}
	if bad.calls.Load() != badCalls {
		t.Fatal("corrupt replica served traffic after exclusion")
	}
}

// gateAlg blocks successful calls on a gate channel so tests can hold
// half-open probe slots occupied while a herd arrives.
type gateAlg struct {
	res   model.TopK
	fail  atomic.Bool
	gate  atomic.Pointer[chan struct{}]
	calls atomic.Int64
}

func (a *gateAlg) Name() string { return "gate" }

func (a *gateAlg) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return a.SearchContext(context.Background(), q, opts)
}

func (a *gateAlg) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	a.calls.Add(1)
	if a.fail.Load() {
		return nil, topk.Stats{StopReason: "error"}, errors.New("boom")
	}
	if gp := a.gate.Load(); gp != nil {
		select {
		case <-*gp:
		case <-ctx.Done():
			return nil, topk.Stats{StopReason: topk.StopCancelled}, nil
		}
	}
	return a.res, topk.Stats{StopReason: "exhausted"}, nil
}

// TestHalfOpenProbeAdmissionExact hammers a half-open replica with a
// concurrent herd: exactly MaxProbes probes may be admitted while the
// slots are held, everyone else skips — run under -race, this is the
// regression test for the half-open admission race.
func TestHalfOpenProbeAdmissionExact(t *testing.T) {
	const maxProbes, herd = 3, 32
	alg := &gateAlg{res: model.TopK{{Doc: 1, Score: 10}}}
	g, err := shardserve.New(shardserve.Config{TripAfter: 1, ProbeEvery: 1, MaxProbes: maxProbes}, one(alg))
	if err != nil {
		t.Fatal(err)
	}
	q, opts := model.Query{0}, topk.Options{K: 5}

	// Trip the only replica.
	alg.fail.Store(true)
	if _, st, err := g.SearchShards(context.Background(), q, opts); err != nil || !st.Shards[0].Dropped {
		t.Fatalf("tripping query: err=%v stats=%+v", err, st.Shards)
	}
	if !tripped(g, 0) {
		t.Fatal("breaker not tripped")
	}

	// The replica recovers, but every probe now parks on the gate and
	// holds its slot while the herd arrives.
	alg.fail.Store(false)
	gate := make(chan struct{})
	alg.gate.Store(&gate)
	before := alg.calls.Load()
	var skipped atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, st, err := g.SearchShards(context.Background(), q, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Shards[0].Skipped {
				skipped.Add(1)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for alg.calls.Load()-before < maxProbes && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Give stragglers a chance to (incorrectly) slip past the cap.
	time.Sleep(50 * time.Millisecond)
	if got := alg.calls.Load() - before; got != maxProbes {
		t.Errorf("probes admitted while slots held = %d, want exactly %d", got, maxProbes)
	}
	close(gate)
	wg.Wait()
	if got := alg.calls.Load() - before; got != maxProbes {
		t.Errorf("total calls after herd = %d, want %d", got, maxProbes)
	}
	if got := skipped.Load(); got != herd-maxProbes {
		t.Errorf("skipped = %d, want %d", got, herd-maxProbes)
	}
	// The successful probes closed the breaker; normal traffic resumes.
	alg.gate.Store(nil)
	if tripped(g, 0) {
		t.Fatal("successful probes did not close the breaker")
	}
	if _, st, err := g.SearchShards(context.Background(), q, opts); err != nil || st.Shards[0].Dropped {
		t.Fatalf("post-recovery query: err=%v run=%+v", err, st.Shards[0])
	}
}

func TestFromIndexReplicasServesExact(t *testing.T) {
	x := algotest.MediumIndex(t, 33)
	ram := iomodel.RAMConfig()
	g, err := shardserve.FromIndex(x, 2, func(v postings.View) topk.Algorithm {
		return core.New(v)
	}, shardserve.Config{IO: &ram, Replicas: 3, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.Name(), "×r3") {
		t.Fatalf("group name %q does not advertise the replica count", g.Name())
	}
	c := g.Counters(0)
	if len(c.Replicas) != 3 {
		t.Fatalf("shard 0 has %d replicas, want 3", len(c.Replicas))
	}
	q := algotest.RandomQuery(x, 5, 909)
	const k = 10
	want := topk.BruteForce(x, q, k)
	got, st, err := g.Search(q, topk.Options{K: k, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDropped != 0 {
		t.Fatalf("ShardsDropped = %d", st.ShardsDropped)
	}
	algotest.AssertExact(t, "replicated", want, got)
	algotest.AssertSettled(t, "after replicated query", g)
}

// TestReplicasShareBytesNotStores: both ways of opening a replicated
// shard — built in memory, read from a written set — hold the shard's
// posting bytes once and reopen them per replica, each behind a store
// and a cache of its own, so a replica is charged for exactly the reads
// it serves.
func TestReplicasShareBytesNotStores(t *testing.T) {
	x := algotest.MediumIndex(t, 34)
	io := iomodel.DefaultConfig()
	io.NoSleep = true
	factory := func(v postings.View) topk.Algorithm { return core.New(v) }
	cfg := shardserve.Config{IO: &io, Replicas: 3, CacheBytes: 1 << 20}
	dir := t.TempDir()
	if err := shardserve.WriteDir(x, 2, 0, dir); err != nil {
		t.Fatal(err)
	}
	built, err := shardserve.FromIndex(x, 2, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := shardserve.OpenDir(dir, factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*shardserve.Group{"FromIndex": built, "OpenDir": opened} {
		for s := 0; s < g.NumShards(); s++ {
			reps := g.ShardInfo(s).Replicas
			if len(reps) != 3 {
				t.Fatalf("%s shard %d: %d replicas, want 3", name, s, len(reps))
			}
			bytesOf := func(r shardserve.Replica) *byte {
				h, err := r.Store.Lookup(diskindex.PostingsFile)
				if err != nil {
					t.Fatal(err)
				}
				return &r.Store.RawBytesOf(h)[0]
			}
			for r := 1; r < len(reps); r++ {
				if bytesOf(reps[r]) != bytesOf(reps[0]) {
					t.Errorf("%s shard %d replica %d holds its own copy of the posting bytes", name, s, r)
				}
				if reps[r].Store == reps[0].Store || reps[r].Cache == reps[0].Cache || reps[r].Cache == nil {
					t.Errorf("%s shard %d replica %d shares a store or a cache with replica 0", name, s, r)
				}
			}
		}
		if _, _, err := g.Search(algotest.RandomQuery(x, 5, 910), topk.Options{K: 10, Exact: true, Threads: 2}); err != nil {
			t.Fatal(err)
		}
		// An unhedged, unfailed query is served by each shard's primary.
		for s := 0; s < g.NumShards(); s++ {
			for r, rep := range g.ShardInfo(s).Replicas {
				if read := rep.Store.Snapshot().BlocksRead; (read > 0) != (r == 0) {
					t.Errorf("%s shard %d replica %d: %d blocks charged after one query on the primary", name, s, r, read)
				}
			}
		}
		algotest.AssertSettled(t, name, g)
	}
}

// TestOpenRefusesOldManifests: a shard set whose manifest an older
// build wrote names shard directories in a layout this build does not
// read; every way into it returns the typed error that says to rebuild.
func TestOpenRefusesOldManifests(t *testing.T) {
	x := algotest.SmallIndex(t, 35)
	factory := func(v postings.View) topk.Algorithm { return core.New(v) }
	for _, version := range []int{1, 2, 3} {
		dir := t.TempDir()
		if err := shardserve.WriteDir(x, 2, 0, dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, shardserve.ManifestFile)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		old := strings.Replace(string(raw), `"version": 4`, fmt.Sprintf(`"version": %d`, version), 1)
		if old == string(raw) {
			t.Fatalf("manifest carries no version 4 to rewrite:\n%s", raw)
		}
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, errRead := shardserve.ReadManifest(dir)
		_, errOpen := shardserve.OpenDir(dir, factory, shardserve.Config{})
		_, errShard := shardserve.OpenShard(dir, 0, factory, shardserve.Config{})
		for what, err := range map[string]error{
			"ReadManifest": errRead, "OpenDir": errOpen, "OpenShard": errShard, "VerifySet": shardserve.VerifySet(dir),
		} {
			var re *diskindex.RebuildError
			if !errors.As(err, &re) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) || !strings.Contains(err.Error(), "rebuild") {
				t.Errorf("%s on a version-%d set: %v, want a *RebuildError that says rebuild", what, version, err)
			}
		}
	}
}

func TestVerifySetCatchesCorruption(t *testing.T) {
	x := algotest.MediumIndex(t, 77)
	dir := t.TempDir()
	if err := shardserve.WriteDir(x, 3, 0, dir); err != nil {
		t.Fatal(err)
	}
	if err := shardserve.VerifySet(dir); err != nil {
		t.Fatalf("fresh set fails verification: %v", err)
	}

	target := filepath.Join(dir, "shard-0001", diskindex.PostingsFile)
	if _, err := faultinject.CorruptFile(target, 7); err != nil {
		t.Fatal(err)
	}
	err := shardserve.VerifySet(dir)
	if err == nil || !strings.Contains(err.Error(), diskindex.PostingsFile) {
		t.Fatalf("VerifySet after corruption = %v, want a mismatch naming %s", err, diskindex.PostingsFile)
	}
	ram := iomodel.RAMConfig()
	factory := func(v postings.View) topk.Algorithm { return core.New(v) }
	if _, err := shardserve.OpenDir(dir, factory, shardserve.Config{IO: &ram}); err == nil ||
		!strings.Contains(err.Error(), "failed verification") {
		t.Fatalf("OpenDir served a corrupted shard: err = %v", err)
	}

	// The flip is its own inverse: repair and serve replicated.
	if _, err := faultinject.CorruptFile(target, 7); err != nil {
		t.Fatal(err)
	}
	if err := shardserve.VerifySet(dir); err != nil {
		t.Fatalf("repaired set fails verification: %v", err)
	}
	g, err := shardserve.OpenDir(dir, factory, shardserve.Config{IO: &ram, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Counters(0).Replicas) != 2 {
		t.Fatalf("opened %d replicas, want 2", len(g.Counters(0).Replicas))
	}
	q := algotest.RandomQuery(x, 4, 404)
	const k = 10
	got, st, err := g.Search(q, topk.Options{K: k, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDropped != 0 {
		t.Fatalf("ShardsDropped = %d", st.ShardsDropped)
	}
	algotest.AssertExact(t, "repaired", topk.BruteForce(x, q, k), got)
}

// TestPromotionRefusesCorruptReplica damages the on-disk artifacts
// after open: the in-memory replicas still serve correct bytes, but
// promotion re-verifies the disk and must refuse the candidate instead
// of promoting over corruption.
func TestPromotionRefusesCorruptReplica(t *testing.T) {
	x := algotest.MediumIndex(t, 88)
	dir := t.TempDir()
	if err := shardserve.WriteDir(x, 1, 0, dir); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Plan{Seed: 9, Dark: true}, 0, 0)
	opened := 0
	factory := func(v postings.View) topk.Algorithm {
		opened++
		alg := core.New(v)
		if opened == 1 { // shard 0 replica 0: permanently dark
			return inj.Wrap(alg)
		}
		return alg
	}
	ram := iomodel.RAMConfig()
	g, err := shardserve.OpenDir(dir, factory, shardserve.Config{
		IO: &ram, Replicas: 2, TripAfter: 1, RetryBackoff: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faultinject.CorruptFile(filepath.Join(dir, "shard-0000", diskindex.DirFile), 3); err != nil {
		t.Fatal(err)
	}

	q := algotest.RandomQuery(x, 5, 505)
	const k = 10
	want := topk.BruteForce(x, q, k)
	got, st, err := g.SearchShards(context.Background(), q, topk.Options{K: k, Exact: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if run := st.Shards[0]; run.Replica != 1 || run.Dropped {
		t.Fatalf("run = %+v, want served by replica 1 (dark primary retried)", run)
	}
	algotest.AssertExact(t, "promote-corrupt", want, got)

	c := g.Counters(0)
	if c.Promotions != 0 {
		t.Fatalf("promoted onto a corrupt replica: %+v", c)
	}
	if c.VerifyFailures != 1 || c.Replicas[1].State != "corrupt" {
		t.Fatalf("counters = %+v, want replica 1 refused as corrupt", c)
	}
	if c.LastVerifyError == "" {
		t.Fatal("LastVerifyError empty after a failed promotion verify")
	}
	if inj.InjectedErrors() == 0 {
		t.Fatal("dark injector never fired")
	}
	// With the primary dark and the only candidate corrupt, the shard
	// goes dark too — but it never serves corrupted bytes.
	_, st, err = g.SearchShards(context.Background(), q, topk.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if run := st.Shards[0]; !run.Dropped {
		t.Fatalf("run = %+v, want dropped (no serviceable replica)", run)
	}
	algotest.AssertSettled(t, "after refused promotion", g)
}
