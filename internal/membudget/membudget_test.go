package membudget

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilBudgetUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Charge(1 << 40); err != nil {
		t.Errorf("nil budget Charge = %v", err)
	}
	b.Release(5)
	if b.Used() != 0 || b.Peak() != 0 || b.Limit() != 0 {
		t.Error("nil budget accessors should be zero")
	}
}

func TestZeroLimitUnlimited(t *testing.T) {
	b := New(0)
	if err := b.Charge(1 << 40); err != nil {
		t.Errorf("unlimited budget Charge = %v", err)
	}
}

func TestChargeAndRelease(t *testing.T) {
	b := New(100)
	if err := b.Charge(60); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 60 {
		t.Errorf("Used = %d", b.Used())
	}
	if err := b.Charge(50); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("over-limit Charge = %v, want ErrMemoryBudget", err)
	}
	if b.Used() != 60 {
		t.Errorf("failed charge must roll back; Used = %d", b.Used())
	}
	b.Release(30)
	if err := b.Charge(50); err != nil {
		t.Errorf("Charge after Release = %v", err)
	}
	if b.Used() != 80 {
		t.Errorf("Used = %d, want 80", b.Used())
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	b := New(1000)
	b.Charge(700)
	b.Release(600)
	b.Charge(100)
	if b.Peak() != 700 {
		t.Errorf("Peak = %d, want 700", b.Peak())
	}
}

func TestConcurrentCharges(t *testing.T) {
	b := New(1000)
	var wg sync.WaitGroup
	var okCount, failCount int64
	var mu sync.Mutex
	for g := 0; g < 20; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := b.Charge(10); err == nil {
					mu.Lock()
					okCount++
					mu.Unlock()
				} else {
					mu.Lock()
					failCount++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// Invariant: successful charges never exceed the limit.
	if okCount*10 != b.Used() {
		t.Errorf("Used = %d, successful charges account for %d", b.Used(), okCount*10)
	}
	if b.Used() > 1000 {
		t.Errorf("Used %d exceeds limit", b.Used())
	}
	if okCount != 100 {
		t.Errorf("exactly 100 charges of 10 fit in 1000; got %d", okCount)
	}
}

func TestChargeNeverExceedsLimitUnderConcurrency(t *testing.T) {
	// A budget held just under its limit, hammered with charges that
	// cannot fit (a full posting cache looks like this all the time):
	// add-then-roll-back lets Used() read above Limit() for an instant on
	// every one of them; compare-and-swap never does.
	const limit, held, chunk = 1000, 900, 300
	b := New(limit)
	if err := b.Charge(held); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var over atomic.Int64
	var watcher, chargers sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if u := b.Used(); u > limit {
				over.Store(u)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		chargers.Add(1)
		go func() {
			defer chargers.Done()
			for i := 0; i < 200000; i++ {
				if b.Charge(chunk) == nil {
					t.Error("a charge beyond the limit succeeded")
					return
				}
			}
		}()
	}
	chargers.Wait()
	close(stop)
	watcher.Wait()
	if u := over.Load(); u != 0 {
		t.Errorf("observed Used() = %d above limit %d", u, limit)
	}
	if b.Used() != held || b.Peak() != held {
		t.Errorf("used %d, peak %d after failed charges, want %d", b.Used(), b.Peak(), held)
	}
}
