package topk

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestIdleStopNilIsExact(t *testing.T) {
	for _, opts := range []Options{{Exact: true, Delta: time.Second}, {}} {
		s := NewIdleStop(opts, func() { t.Error("expired") })
		if s != nil {
			t.Fatalf("NewIdleStop(%+v) = %v, want nil", opts, s)
		}
		s.Touch()
		s.Arm()
		s.Stop()
	}
}

func TestIdleStopExpiresDeltaAfterLastChange(t *testing.T) {
	// Δ is far above this host's scheduling stalls, so that the upper
	// bound below can stay under 2Δ.
	const delta = 200 * time.Millisecond
	fired := make(chan time.Time, 2) // room for a second, wrong, call: never block the timer
	s := NewIdleStop(Options{Delta: delta}, func() { fired <- time.Now() })
	s.Arm()
	s.Arm() // only the first call counts
	defer s.Stop()

	// Keep the heap moving for two Δ: the timer must set itself again
	// and not expire.
	var last time.Time
	var maxGap time.Duration
	for end := time.Now().Add(2 * delta); time.Now().Before(end); time.Sleep(delta / 10) {
		now := time.Now()
		if !last.IsZero() && now.Sub(last) > maxGap {
			maxGap = now.Sub(last)
		}
		last = now
		s.Touch()
	}
	if maxGap >= delta {
		t.Skipf("the host held this test up for %v, Δ is %v: it did not keep the heap moving", maxGap, delta)
	}
	select {
	case <-fired:
		t.Fatal("expired while the heap was changing")
	default:
	}
	after := time.Now() // the last change happened between last and after
	select {
	case at := <-fired:
		if idle := at.Sub(last); idle < delta {
			t.Errorf("expired %v after the last change, Δ is %v", idle, delta)
		}
		// One deadline, at last change + Δ: not 2Δ, not the next tick of
		// some poll. The slack is scheduling delay only.
		if idle := at.Sub(after); idle >= 2*delta-delta/10 {
			t.Errorf("expired %v after the last change, want Δ = %v", idle, delta)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("never expired")
	}
	select {
	case <-fired:
		t.Fatal("expired twice")
	case <-time.After(delta + delta/2):
	}
}

func TestIdleStopStopCancels(t *testing.T) {
	var fired atomic.Bool
	s := NewIdleStop(Options{Delta: 20 * time.Millisecond}, func() { fired.Store(true) })
	s.Arm()
	s.Stop()
	late := NewIdleStop(Options{Delta: 20 * time.Millisecond}, func() { fired.Store(true) })
	late.Stop()
	late.Arm() // the query ended before its phase 1 got to arm: no timer
	time.Sleep(60 * time.Millisecond)
	if fired.Load() {
		t.Error("expired after Stop")
	}
	if late.timer != nil {
		t.Error("Arm after Stop left a timer")
	}
}
