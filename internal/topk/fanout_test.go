package topk

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"sparta/internal/model"
)

// TestStatsFoldRanksStopReasons is the one table of the stop-reason
// fold every fan-out uses: each row's parts fold to want in either
// order.
func TestStatsFoldRanksStopReasons(t *testing.T) {
	for _, c := range []struct {
		parts []string
		want  string
	}{
		{[]string{"delta", "safe"}, "delta"},
		{[]string{"oom", "safe", "exhausted"}, "oom"},
		{[]string{"prob", "merged"}, "prob"},
		{[]string{"fraction", "exhausted"}, "fraction"},
		{[]string{StopPartial, "safe"}, StopPartial},
		{[]string{StopCancelled, "safe"}, StopCancelled},
		{[]string{StopDeadline, "delta"}, StopDeadline},
		{[]string{StopDeadline, StopCancelled}, StopCancelled},
		{[]string{"oom", "delta"}, "delta"},
		{[]string{"exhausted", "safe"}, "safe"},
		{[]string{"ubstop", "exhausted"}, "ubstop"},
		{[]string{"exhausted", "exhausted"}, "exhausted"},
		{[]string{"exhausted", ""}, "exhausted"},
		{[]string{"", "safe", ""}, "safe"}, // a skipped part says nothing
		{[]string{"", ""}, ""},
	} {
		reversed := slices.Clone(c.parts)
		slices.Reverse(reversed)
		for _, order := range [][]string{c.parts, reversed} {
			var st Stats
			for _, r := range order {
				st.Fold(Stats{StopReason: r})
			}
			if st.StopReason != c.want {
				t.Errorf("parts stopped %q: folded %q, want %q", order, st.StopReason, c.want)
			}
		}
	}

	// Counts add up, CandidatesPeak is the largest part's, Duration is
	// left alone.
	st := Stats{Duration: 7}
	st.Fold(Stats{Postings: 10, RandomAccesses: 1, HeapInserts: 2, Cleanings: 3, CandidatesPeak: 50, ShardsDropped: 1, Duration: 100})
	st.Fold(Stats{Postings: 5, RandomAccesses: 4, HeapInserts: 1, Cleanings: 0, CandidatesPeak: 80, Duration: 200})
	want := Stats{Duration: 7, Postings: 15, RandomAccesses: 5, HeapInserts: 3, Cleanings: 3, CandidatesPeak: 80, ShardsDropped: 1}
	if st != want {
		t.Errorf("folded %+v, want %+v", st, want)
	}
}

// scriptedParts is a Part that answers part i with doc i at score i and
// the Stats scripted for it.
func scriptedParts(parts []Stats) Part {
	return func(_ context.Context, i int, _ Options) (model.TopK, Stats, error) {
		return model.TopK{{Doc: model.DocID(i), Score: model.Score(i)}}, parts[i], nil
	}
}

// TestFanOutStopRule: the context's reason, then a dropped part, then
// an early stop, then complete — or the folded reason when complete is
// empty.
func TestFanOutStopRule(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()
	dropped := Stats{StopReason: StopDeadline, ShardsDropped: 1}
	for _, c := range []struct {
		name     string
		ctx      context.Context
		complete string
		parts    []Stats
		want     string
	}{
		{"all complete", bg, StopMerged, []Stats{{StopReason: "safe"}, {StopReason: "exhausted"}}, StopMerged},
		{"one delta", bg, StopMerged, []Stats{{StopReason: "safe"}, {StopReason: "delta"}}, "delta"},
		{"one dropped", bg, StopMerged, []Stats{{StopReason: "delta"}, dropped}, StopPartial},
		{"cancelled", cancelled, StopMerged, []Stats{{StopReason: "safe"}, dropped}, StopCancelled},
		{"segments", bg, "", []Stats{{StopReason: "exhausted"}, {StopReason: "safe"}}, "safe"},
		{"no parts", bg, "", nil, "exhausted"},
	} {
		res, st, err := FanOut(c.ctx, model.Query{1}, Options{K: 10}, len(c.parts), 2, c.complete, scriptedParts(c.parts))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st.StopReason != c.want {
			t.Errorf("%s: stop %q, want %q", c.name, st.StopReason, c.want)
		}
		if len(res) != len(c.parts) {
			t.Errorf("%s: %d results, want %d", c.name, len(res), len(c.parts))
		}
	}
}

// TestFanOutNoTermsRunsNoPart: a query with no terms is answered like
// one with no parts — empty, stopped "exhausted" — whatever the parts
// would have said, and none of them runs.
func TestFanOutNoTermsRunsNoPart(t *testing.T) {
	var calls atomic.Int64
	res, st, err := FanOut(context.Background(), model.Query{}, Options{K: 10}, 3, 2, StopMerged,
		func(context.Context, int, Options) (model.TopK, Stats, error) {
			calls.Add(1)
			return model.TopK{{Doc: 1, Score: 1}}, Stats{StopReason: "exhausted"}, nil
		})
	if err != nil || len(res) != 0 || st.StopReason != "exhausted" || calls.Load() != 0 {
		t.Fatalf("got %d results, stop %q, err %v, %d parts run; want 0, exhausted, nil, 0",
			len(res), st.StopReason, err, calls.Load())
	}
}

// TestFanOutObservesOneQuery: the parts' execution events reach the
// query's observer, their lifecycle events do not, and the one
// QueryFinish carries the folded Stats; no part sees the recall probe.
func TestFanOutObservesOneQuery(t *testing.T) {
	obs := &RecordingObserver{}
	const n = 3
	var probes atomic.Int64
	part := func(_ context.Context, i int, opts Options) (model.TopK, Stats, error) {
		if opts.Probe != nil {
			probes.Add(1)
		}
		es := NewExecState(context.Background(), opts.Observer)
		es.Begin(model.Query{1}, opts)
		es.HeapUpdate(model.DocID(i), 1)
		st := Stats{Postings: 10, StopReason: "safe"}
		es.Finish(st, nil)
		return model.TopK{{Doc: model.DocID(i), Score: 1}}, st, nil
	}
	opts := Options{K: 10, Observer: obs, Probe: NewRecallProbe(nil)}
	_, st, err := FanOut(context.Background(), model.Query{1}, opts, n, n, StopMerged, part)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Queries() != 1 || obs.Finishes() != 1 {
		t.Errorf("observer saw %d starts / %d finishes, want 1/1", obs.Queries(), obs.Finishes())
	}
	if obs.HeapUpdates() != n {
		t.Errorf("observer saw %d heap updates, want %d", obs.HeapUpdates(), n)
	}
	if last, err := obs.Last(); err != nil || last != st {
		t.Errorf("observer last = (%+v, %v), want (%+v, nil)", last, err, st)
	}
	if st.Postings != n*10 || st.StopReason != StopMerged {
		t.Errorf("stats %+v, want %d postings, stop %q", st, n*10, StopMerged)
	}
	if probes.Load() != 0 {
		t.Errorf("%d parts saw the recall probe", probes.Load())
	}
}

// TestFanOutFirstErrorStops: a part's error ends the query — no answer,
// the error returned, and parts not yet started never run — and no more
// than workers parts run at once.
func TestFanOutFirstErrorStops(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	part := func(_ context.Context, i int, _ Options) (model.TopK, Stats, error) {
		ran.Add(1)
		if i == 1 {
			return nil, Stats{StopReason: "oom"}, boom
		}
		return model.TopK{{Doc: 1, Score: 1}}, Stats{StopReason: "safe"}, nil
	}
	res, st, err := FanOut(context.Background(), model.Query{1}, Options{}, 5, 1, StopMerged, part)
	if !errors.Is(err, boom) || res != nil {
		t.Fatalf("got (%v, %v), want (nil, %v)", res, err, boom)
	}
	if st.StopReason != "oom" {
		t.Errorf("stop %q, want oom", st.StopReason)
	}
	if ran.Load() != 2 {
		t.Errorf("%d parts ran, want 2 (the failing one and the one before it)", ran.Load())
	}

	var running, peak atomic.Int64
	wide := func(_ context.Context, i int, _ Options) (model.TopK, Stats, error) {
		r := running.Add(1)
		for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
		}
		defer running.Add(-1)
		return nil, Stats{StopReason: "safe"}, nil
	}
	if _, _, err := FanOut(context.Background(), model.Query{1}, Options{}, 16, 3, "", wide); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Errorf("%d parts ran at once, want at most 3", peak.Load())
	}
}
