package jobqueue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunsAllJobs(t *testing.T) {
	p := New(4)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.CloseAfterDrain()
	if n.Load() != 100 {
		t.Errorf("ran %d jobs, want 100", n.Load())
	}
}

func TestSelfPerpetuatingJobs(t *testing.T) {
	// Sparta's PROCESSTERM pattern: each job re-enqueues its successor.
	p := New(3)
	var n atomic.Int64
	var resubmit func()
	resubmit = func() {
		if n.Add(1) < 500 {
			p.Submit(resubmit)
		}
	}
	for i := 0; i < 3; i++ {
		p.Submit(resubmit)
	}
	p.Drain()
	p.Close()
	if got := n.Load(); got < 500 {
		t.Errorf("ran %d jobs, want >= 500", got)
	}
}

func TestDrainWaitsForRunningJobs(t *testing.T) {
	p := New(2)
	var done atomic.Bool
	release := make(chan struct{})
	p.Submit(func() {
		<-release
		done.Store(true)
	})
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	p.Drain()
	if !done.Load() {
		t.Error("Drain returned before running job finished")
	}
	p.Close()
}

func TestDrainOnIdlePool(t *testing.T) {
	p := New(2)
	doneCh := make(chan struct{})
	go func() {
		p.Drain()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(time.Second):
		t.Fatal("Drain on idle pool blocked")
	}
	p.Close()
}

func TestCloseDiscardsQueued(t *testing.T) {
	p := New(2) // one goroutine besides the caller, to be running the blocker
	block := make(chan struct{})
	var ran atomic.Int64
	p.Submit(func() { <-block })
	for i := 0; i < 50; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(block)
	}()
	p.Close()
	if ran.Load() != 0 {
		t.Errorf("%d queued jobs ran after Close", ran.Load())
	}
}

func TestSubmitAfterCloseIsNoOp(t *testing.T) {
	p := New(1)
	p.Close()
	p.Submit(func() { t.Error("job ran after Close") })
	time.Sleep(5 * time.Millisecond)
}

func TestWorkerCountFloor(t *testing.T) {
	p := New(0) // floors to 1
	var n atomic.Int64
	p.Submit(func() { n.Add(1) })
	p.CloseAfterDrain()
	if n.Load() != 1 {
		t.Error("zero-worker pool did not run job")
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p := New(4)
	var n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Submit(func() { n.Add(1) })
			}
		}()
	}
	wg.Wait()
	p.CloseAfterDrain()
	if n.Load() != 1600 {
		t.Errorf("ran %d, want 1600", n.Load())
	}
}

func TestFIFOOrderSingleWorker(t *testing.T) {
	p := New(1)
	var mu sync.Mutex
	var order []int
	for i := 0; i < 20; i++ {
		p.Submit(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	p.CloseAfterDrain()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; queue is not FIFO", i, v)
		}
	}
}

func TestEventJobParksUntilNotified(t *testing.T) {
	p := New(2)
	defer p.Close()
	var passes atomic.Int64
	var job *EventJob
	job = NewEventJob(p, func() {
		epoch := job.Epoch()
		passes.Add(1)
		job.Park(epoch)
	})
	job.Start()
	p.Drain()
	if n := passes.Load(); n != 1 || !job.parked.Load() {
		t.Fatalf("after Start: %d passes, parked %v; want 1 pass, parked", n, job.parked.Load())
	}
	p.Drain() // no event: nothing runs, nothing spins
	if n := passes.Load(); n != 1 {
		t.Fatalf("parked job ran %d passes without an event", n)
	}
	for i := int64(2); i <= 4; i++ {
		job.Notify()
		p.Drain()
		if n := passes.Load(); n != i || !job.parked.Load() {
			t.Fatalf("after Notify: %d passes, parked %v; want %d, parked", n, job.parked.Load(), i)
		}
	}
}

func TestEventJobLosesNoWakeup(t *testing.T) {
	// Producers publish a value and Notify; each pass records the
	// largest value it saw. Whatever the interleaving of Notify with a
	// pass's end, once everything is quiet the job must have seen the
	// last value — a lost wake-up leaves it parked on a stale one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for round := 0; round < 50; round++ {
			p := New(2)
			var published, seen atomic.Int64
			var job *EventJob
			job = NewEventJob(p, func() {
				epoch := job.Epoch()
				seen.Store(published.Load())
				job.Park(epoch)
			})
			job.Start()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						published.Add(1)
						job.Notify()
					}
				}()
			}
			wg.Wait()
			p.Drain()
			if s, want := seen.Load(), published.Load(); s != want || !job.parked.Load() {
				t.Fatalf("procs=%d round=%d: job saw %d of %d, parked %v", procs, round, s, want, job.parked.Load())
			}
			p.Close()
		}
	}
}

func TestCallerIsAWorker(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(1)
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("New(1) started %d goroutines; its only worker is the caller", n-base)
	}
	// No synchronization on ran: every job runs on this goroutine, or
	// the race detector says otherwise.
	var ran []string
	p.Submit(func() {
		ran = append(ran, "before")
		p.Submit(func() { ran = append(ran, "during") })
	})
	if len(ran) != 0 {
		t.Fatalf("jobs %v ran with nobody waiting", ran)
	}
	p.Drain()
	if len(ran) != 2 || ran[0] != "before" || ran[1] != "during" {
		t.Fatalf("Drain ran %v, want the job submitted before it and the one submitted during", ran)
	}

	// Run works until a job stops the pool; what is still queued then,
	// and what is submitted afterwards, never runs.
	p.Submit(func() {
		ran = append(ran, "stopper")
		p.Submit(func() { ran = append(ran, "discarded") })
		p.Stop()
		p.Submit(func() { ran = append(ran, "late") })
	})
	p.Submit(func() { ran = append(ran, "queued behind the stopper") })
	p.Run()
	p.Close()
	if len(ran) != 3 || ran[2] != "stopper" {
		t.Fatalf("ran %v, want nothing after the stopper", ran)
	}

	// A wider pool starts one goroutine fewer than its width, and Close
	// leaves none behind.
	p = New(3)
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("New(3) started %d goroutines, want 2", n-base)
	}
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.CloseAfterDrain()
	if n.Load() != 100 {
		t.Errorf("ran %d jobs, want 100", n.Load())
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
		}
	}
}

func TestStopWakesRun(t *testing.T) {
	// The wait of a query that a timer ends: Run is idle (nothing queued)
	// when something outside the pool stops it.
	p := New(2)
	started := make(chan struct{})
	p.Submit(func() { close(started) })
	go func() {
		<-started
		p.Stop()
	}()
	p.Run()
	p.Close()
}
