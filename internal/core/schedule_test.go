package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/algos/algotest"
	"sparta/internal/diskindex"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// Tests of the event-driven cleaner: no wake-up is lost at any core
// count, the Δ stop fires when no cleaner pass can run, and a query
// cancelled while the cleaner is parked still ends promptly.

func TestSpartaSchedulingStress(t *testing.T) {
	x := algotest.SmallIndex(t, 31)
	algotest.StressScheduling(t, x, New(x), func(label string, st topk.Stats) {
		// The stop reason is a function of the data: an exact query the
		// cleaner can prune down to the heap says so at any core count.
		if st.StopReason != "safe" {
			t.Errorf("%s: stop %q, want safe", label, st.StopReason)
		}
	})
}

// popularQuery targets the longest posting lists (the corpus
// generator's Zipf makes low term ids popular): UBStop latches with
// thousands of postings still to go.
var popularQuery = model.Query{0, 1, 2, 3, 4, 5}

// passObserver reports every cleaner pass to onPass and, when
// lastChange is set, stamps every heap change into it.
type passObserver struct {
	topk.NopObserver
	onPass     func()
	lastChange *atomic.Int64
}

func (o passObserver) CleanerPass(kept, dropped int) { o.onPass() }

func (o passObserver) HeapUpdate(model.DocID, model.Score) {
	if o.lastChange != nil {
		o.lastChange.Store(time.Now().UnixNano())
	}
}

// goroutinesSettle waits for the goroutine count to come back to base.
func goroutinesSettle(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestSpartaDeltaStopFiresWithoutACleanerPass(t *testing.T) {
	const (
		delta = 150 * time.Millisecond
		stuck = 250 * time.Millisecond
		slack = 120 * time.Millisecond // scheduling delay, race detector included; keeps Δ+slack under 2Δ
	)
	x, err := diskindex.FromIndex(algotest.MediumIndex(t, 32), diskindex.DefaultShards, iomodel.Config{
		BlockSize:   256,
		CacheBlocks: 16,
		SeqLatency:  time.Microsecond,
		RandLatency: 2 * time.Microsecond,
		SleepBatch:  time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// From the first cleaner pass on — so after UBStop — every block
	// fetch of every list hangs. Both workers end up inside stuck reads
	// with more segments queued behind them, so no cleaner pass can run
	// until a segment completes, and a segment is dozens of blocks:
	// waiting for one takes seconds. Only the Δ timer can end the query.
	var hang atomic.Bool
	var lastChange atomic.Int64
	x.Store().SetFaultHook(func(int, int64) time.Duration {
		if hang.Load() {
			return stuck
		}
		return 0
	})
	obs := passObserver{onPass: func() { hang.Store(true) }, lastChange: &lastChange}
	base := runtime.NumGoroutine()

	opts := topk.Options{K: 10, Threads: 2, Delta: delta, Observer: obs}.WithDefaults()
	es := topk.NewExecState(context.Background(), obs)
	r := newRun(es.BindView(x), popularQuery, opts, Config{}, es)
	// The Δ rule's verdict, stamped as it is delivered (expire runs at
	// most once).
	stopped := make(chan time.Time, 1)
	r.idle = topk.NewIdleStop(opts, func() {
		stopped <- time.Now()
		r.finish("delta")
	})
	_, st, err := r.run()
	returned := time.Now()
	es.Finish(st, err)
	if err != nil {
		t.Fatal(err)
	}
	if st.StopReason != "delta" || !hang.Load() {
		t.Fatalf("stop %q with I/O hung %v, want delta after the hang (cleanings %d)", st.StopReason, hang.Load(), st.Cleanings)
	}
	// One deadline: the last heap change + Δ (a block that arrives out of
	// a stuck read may still insert, and moves it). The stamp is taken
	// just before the rule's own, so the lower bound is strict.
	stoppedAt := <-stopped
	if idle := stoppedAt.Sub(time.Unix(0, lastChange.Load())); idle < delta || idle > delta+slack {
		t.Errorf("Δ stop %v after the last heap change, want within [Δ, Δ+%v], Δ = %v", idle, slack, delta)
	}
	// The query then returns once the read already in flight has been
	// paid for, as on every other stop: one 64-posting block, which spans
	// up to three of this store's 256-byte blocks — not the rest of the
	// segment.
	if took := returned.Sub(stoppedAt); took > 3*stuck+slack {
		t.Errorf("returned %v after the Δ stop, want at most one posting block's read (3 × %v)", took, stuck)
	}
	algotest.AssertSettled(t, "after Δ stop under stuck I/O", x.Store())
	if n := goroutinesSettle(base); n > base {
		t.Errorf("%d goroutines after the query, %d before: a timer or worker was left behind", n, base)
	}
}

func TestSpartaCancelledWhileCleanerParked(t *testing.T) {
	// Storage slow enough that the query spends nearly all its time
	// inside segments, with the cleaner parked in between.
	x, err := diskindex.FromIndex(algotest.MediumIndex(t, 33), diskindex.DefaultShards, iomodel.Config{
		BlockSize:   256,
		CacheBlocks: 16,
		SeqLatency:  500 * time.Microsecond,
		RandLatency: 2 * time.Millisecond,
		SleepBatch:  time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	passed := make(chan struct{}, 1) // one token is enough: it only says the cleaner exists
	obs := passObserver{onPass: func() {
		select {
		case passed <- struct{}{}:
		default:
		}
	}}
	opts := topk.Options{K: 100, Threads: 2, Exact: true, SegSize: 64, Observer: obs}.WithDefaults()
	es := topk.NewExecState(ctx, obs)
	r := newRun(es.BindView(x), popularQuery, opts, Config{}, es)

	type answer struct {
		res model.TopK
		st  topk.Stats
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, st, err := r.run()
		es.Finish(st, err)
		done <- answer{res, st, err}
	}()

	select {
	case <-passed:
	case a := <-done:
		t.Fatalf("query ended (%q) before a cleaner pass was seen", a.st.StopReason)
	case <-time.After(30 * time.Second):
		t.Fatal("no cleaner pass")
	}
	// A pass takes microseconds and a segment on this storage
	// milliseconds, so a moment after a pass the cleaner is parked (and
	// the assertions below hold in the unlikely other case too).
	time.Sleep(2 * time.Millisecond)
	cancelled := time.Now()
	cancel()

	select {
	case a := <-done:
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.st.StopReason != topk.StopCancelled {
			t.Errorf("stop %q, want %q", a.st.StopReason, topk.StopCancelled)
		}
		if took := time.Since(cancelled); took > time.Second {
			t.Errorf("cancelled query took %v to return", took)
		}
		algotest.AssertPartialTopK(t, "Sparta", a.res, opts.K)
	case <-time.After(30 * time.Second):
		t.Fatal("query cancelled while the cleaner was parked never returned")
	}
	algotest.AssertSettled(t, "after cancel with the cleaner parked", x.Store())
}
