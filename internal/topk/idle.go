package topk

import (
	"sync"
	"sync/atomic"
	"time"
)

// IdleStop is the TA family's Δ rule — "stopping after the heap does
// not change for some Δ time" (§4) — for the parallel algorithms
// (Sparta, pNRA). It is one one-shot timer set for the last heap change
// + Δ: when it fires and the heap has not moved since, it ends the
// query; if the heap has moved, it sets itself for the new deadline. It
// does not depend on any worker reaching a stopping check, so the stop
// is on time also when every worker is inside a slow or stuck read.
//
// Because the verdict is not a worker's, it would mistake workers that
// are kept off the CPU for a heap that has converged. So the owner arms
// the rule only at the start of the shrinking phase (Sparta's phase 1,
// pNRA's first pass that finds Equation 1 true): the heap is full and
// no new candidate can enter it, and wall-clock time alone never ends a
// query that holds no usable result.
//
// A nil *IdleStop is the exact configuration (Δ = ∞): every method is
// a no-op.
type IdleStop struct {
	delta  time.Duration
	expire func()
	last   atomic.Int64 // UnixNano of the last heap change

	mu      sync.Mutex // guards the fields below
	timer   *time.Timer
	stopped bool
}

// NewIdleStop returns the Δ rule for opts, or nil when opts asks for
// exact evaluation or sets no Δ. expire ends the query; it is called at
// most once, on the timer's goroutine.
func NewIdleStop(opts Options, expire func()) *IdleStop {
	if opts.Exact || opts.Delta <= 0 {
		return nil
	}
	s := &IdleStop{delta: opts.Delta, expire: expire}
	s.Touch()
	return s
}

// Touch records a heap change.
func (s *IdleStop) Touch() {
	if s != nil {
		s.last.Store(time.Now().UnixNano())
	}
}

// Arm sets the timer for the last heap change + Δ. Only the first call
// counts, and none does after Stop.
func (s *IdleStop) Arm() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.timer == nil && !s.stopped {
		s.timer = time.AfterFunc(s.delta-s.idleFor(), s.fire)
	}
	s.mu.Unlock()
}

// idleFor returns how long the heap has gone unchanged.
func (s *IdleStop) idleFor() time.Duration {
	return time.Since(time.Unix(0, s.last.Load()))
}

// fire is the timer's callback.
func (s *IdleStop) fire() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	if idle := s.idleFor(); idle < s.delta { // the heap moved since the timer was set
		s.timer.Reset(s.delta - idle)
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	s.expire()
}

// Stop cancels the timer; none is left armed once it returns. An expire
// already under way may still be finishing, so expire must be harmless
// on a query that has ended (the algorithms' finish is: first reason
// wins).
func (s *IdleStop) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stopped = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.mu.Unlock()
}
