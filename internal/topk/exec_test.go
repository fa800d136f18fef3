package topk

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sparta/internal/model"
)

func TestExecStateBackground(t *testing.T) {
	es := NewExecState(context.Background(), nil)
	if es.Stopped() {
		t.Error("background context must not be stopped")
	}
	if es.StopReason() != "" {
		t.Errorf("StopReason = %q, want empty", es.StopReason())
	}
	es.Finish(Stats{}, nil)
}

func TestExecStateNilReceiver(t *testing.T) {
	var es *ExecState
	if es.Stopped() {
		t.Error("nil ExecState must not be stopped")
	}
	if es.StopReason() != "" {
		t.Error("nil ExecState must have empty reason")
	}
	if es.Context() == nil {
		t.Error("nil ExecState context must not be nil")
	}
	// All event emitters must be nil-safe no-ops.
	es.Begin(model.Query{1}, Options{})
	es.SegmentScheduled(0)
	es.HeapUpdate(1, 2)
	es.CleanerPass(1, 2)
	es.Finish(Stats{}, nil)
}

func TestExecStatePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	es := NewExecState(ctx, nil)
	if !es.Stopped() {
		t.Fatal("pre-cancelled context must be stopped immediately, without waiting for a watcher")
	}
	if es.StopReason() != StopCancelled {
		t.Errorf("StopReason = %q, want %q", es.StopReason(), StopCancelled)
	}
	es.Finish(Stats{}, nil)
}

func TestExecStateCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	es := NewExecState(ctx, nil)
	if es.Stopped() {
		t.Fatal("not yet cancelled")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !es.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("watcher never flipped the stopped flag")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if es.StopReason() != StopCancelled {
		t.Errorf("StopReason = %q, want %q", es.StopReason(), StopCancelled)
	}
	es.Finish(Stats{}, nil)
}

func TestExecStateDeadlineReason(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	es := NewExecState(ctx, nil)
	if !es.Stopped() || es.StopReason() != StopDeadline {
		t.Errorf("stopped=%v reason=%q, want stopped with %q", es.Stopped(), es.StopReason(), StopDeadline)
	}
	es.Finish(Stats{}, nil)
}

func TestExecStateFinishIdempotent(t *testing.T) {
	es := NewExecState(context.Background(), nil)
	es.Finish(Stats{}, nil)
	es.Finish(Stats{}, nil) // second call must not panic (double close)
}

func TestReasonFor(t *testing.T) {
	if r := StopReasonFor(context.DeadlineExceeded); r != StopDeadline {
		t.Errorf("DeadlineExceeded -> %q", r)
	}
	if r := StopReasonFor(context.Canceled); r != StopCancelled {
		t.Errorf("Canceled -> %q", r)
	}
	wrapped := errors.Join(errors.New("outer"), context.DeadlineExceeded)
	if r := StopReasonFor(wrapped); r != StopDeadline {
		t.Errorf("wrapped DeadlineExceeded -> %q", r)
	}
}

func TestRecordingObserverCounts(t *testing.T) {
	var obs RecordingObserver
	es := NewExecState(context.Background(), &obs)
	es.Begin(model.Query{1, 2}, Options{K: 5})
	es.SegmentScheduled(0)
	es.SegmentScheduled(1)
	es.HeapUpdate(7, 100)
	es.CleanerPass(3, 2)
	obs.IOFetch(time.Millisecond)
	es.Finish(Stats{StopReason: "exhausted"}, nil)

	if obs.Queries() != 1 || obs.Finishes() != 1 {
		t.Errorf("queries/finishes = %d/%d", obs.Queries(), obs.Finishes())
	}
	if obs.Segments() != 2 || obs.HeapUpdates() != 1 || obs.CleanerPasses() != 1 {
		t.Errorf("segments/heap/cleaner = %d/%d/%d",
			obs.Segments(), obs.HeapUpdates(), obs.CleanerPasses())
	}
	if obs.IOFetches() != 1 || obs.IOWait() != time.Millisecond {
		t.Errorf("io = %d fetches, %v", obs.IOFetches(), obs.IOWait())
	}
	st, err := obs.Last()
	if err != nil || st.StopReason != "exhausted" {
		t.Errorf("Last() = (%q, %v)", st.StopReason, err)
	}
}

func TestRecordingObserverConcurrent(t *testing.T) {
	var obs RecordingObserver
	var wg sync.WaitGroup
	const workers, events = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < events; i++ {
				obs.SegmentScheduled(i)
				obs.HeapUpdate(model.DocID(i), model.Score(i))
				obs.IOFetch(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if obs.Segments() != workers*events {
		t.Errorf("segments = %d, want %d", obs.Segments(), workers*events)
	}
	if obs.HeapUpdates() != workers*events {
		t.Errorf("heapUpdates = %d, want %d", obs.HeapUpdates(), workers*events)
	}
	if obs.IOWait() != workers*events*time.Nanosecond {
		t.Errorf("ioWait = %v", obs.IOWait())
	}
}

func TestNopObserverDisablesObservation(t *testing.T) {
	es := NewExecState(context.Background(), NopObserver{})
	if es.observing {
		t.Error("an explicit NopObserver must not mark the state as observing")
	}
	es.Finish(Stats{}, nil)
}
