package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sparta/internal/model"
	"sparta/internal/shardrpc"
	"sparta/internal/topk"
)

// span is one timed interval at a layer boundary the benchmark can see
// from outside the program. Spans of one query share its id; Parent is
// the index of the enclosing span within the query (-1 for the root).
// Times are nanoseconds since the run began.
type span struct {
	Workload string `json:"workload"`
	Query    int64  `json:"query"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// shardCall is what a client shim saw of one shard's answer.
type shardCall struct {
	shard      int
	start, end time.Time
	reported   time.Duration // the server's own Stats.Duration
	results    model.TopK
}

// qtrace collects one traced query: it is the query's topk.Observer
// (event counts, and the instants execution began and ended) and
// travels in the query's context to the shims below the entry point.
type qtrace struct {
	topk.RecordingObserver
	id int64

	mu        sync.Mutex
	execStart time.Time // first QueryStart
	execEnd   time.Time // last QueryFinish
	shards    []shardCall
	resolves  [][2]time.Time
	admitted  time.Time // probe runs: when the entry shim was reached
}

func (t *qtrace) QueryStart(q model.Query, o topk.Options) {
	now := time.Now()
	t.RecordingObserver.QueryStart(q, o)
	t.mu.Lock()
	if t.execStart.IsZero() {
		t.execStart = now
	}
	t.mu.Unlock()
}

func (t *qtrace) QueryFinish(st topk.Stats, err error) {
	now := time.Now()
	t.RecordingObserver.QueryFinish(st, err)
	t.mu.Lock()
	t.execEnd = now
	t.mu.Unlock()
}

type traceKey struct{}

func withTrace(ctx context.Context, t *qtrace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

func traceFrom(ctx context.Context) *qtrace {
	t, _ := ctx.Value(traceKey{}).(*qtrace)
	return t
}

// entryShim stands where a Searcher hands a query to its algorithm and
// notes when the query got there: Searcher entry to shim entry is the
// admission wait.
type entryShim struct {
	alg topk.Algorithm
}

func (s *entryShim) Name() string { return s.alg.Name() }

func (s *entryShim) Search(q model.Query, o topk.Options) (model.TopK, topk.Stats, error) {
	return s.SearchContext(context.Background(), q, o)
}

func (s *entryShim) SearchContext(ctx context.Context, q model.Query, o topk.Options) (model.TopK, topk.Stats, error) {
	if t := traceFrom(ctx); t != nil {
		now := time.Now()
		t.mu.Lock()
		t.admitted = now
		t.mu.Unlock()
	}
	return s.alg.SearchContext(ctx, q, o)
}

// clientShim wraps one shardrpc.Client: it times every search and
// resolve call and keeps the server-reported duration beside the
// client-side wall time of the same call, so added wire latency is a
// paired difference per call.
type clientShim struct {
	cl    *shardrpc.Client
	shard int
}

func (s *clientShim) Name() string { return s.cl.Name() }

func (s *clientShim) Search(q model.Query, o topk.Options) (model.TopK, topk.Stats, error) {
	return s.SearchContext(context.Background(), q, o)
}

func (s *clientShim) SearchContext(ctx context.Context, q model.Query, o topk.Options) (model.TopK, topk.Stats, error) {
	t0 := time.Now()
	res, st, err := s.cl.SearchContext(ctx, q, o)
	t1 := time.Now()
	if t := traceFrom(ctx); t != nil {
		t.mu.Lock()
		t.shards = append(t.shards, shardCall{shard: s.shard, start: t0, end: t1, reported: st.Duration, results: res})
		t.mu.Unlock()
	}
	return res, st, err
}

func (s *clientShim) Resolve(ctx context.Context, q model.Query, docs []model.DocID) ([]model.Score, error) {
	t0 := time.Now()
	scores, err := s.cl.Resolve(ctx, q, docs)
	t1 := time.Now()
	if t := traceFrom(ctx); t != nil {
		t.mu.Lock()
		t.resolves = append(t.resolves, [2]time.Time{t0, t1})
		t.mu.Unlock()
	}
	return scores, err
}

// spans lays the query's intervals out as a tree:
//
//	query -> <entry> -> pre_exec | exec            (single index)
//	query -> <entry> -> shard<i> -> remote_exec    (sharded)
//	                 -> resolve
//
// query runs from when the request was due to when its answer arrived;
// <entry> is the call into the serving entry point. remote_exec is the
// server's own reported duration, centred in its shard span because
// the two ends of a connection share no clock; what is left of the
// shard span is what the wire added.
func (t *qtrace) spans(workload, entry string, epoch, due, start, end time.Time) []span {
	at := func(x time.Time) int64 { return int64(x.Sub(epoch)) }
	out := []span{
		{Name: "query", Parent: -1, Start: at(due), End: at(end)},
		{Name: entry, Parent: 0, Start: at(start), End: at(end)},
	}
	add := func(name string, parent int, s, e time.Time) int {
		// A child never leaves its parent: clamp clock jitter.
		ps, pe := out[parent].Start, out[parent].End
		a, b := max(at(s), ps), min(at(e), pe)
		if b < a {
			b = a
		}
		out = append(out, span{Name: name, Parent: parent, Start: a, End: b})
		return len(out) - 1
	}
	if !t.execStart.IsZero() && !t.execEnd.IsZero() {
		add("pre_exec", 1, start, t.execStart)
		add("exec", 1, t.execStart, t.execEnd)
	}
	for _, c := range t.shards {
		id := add(fmt.Sprintf("shard%d", c.shard), 1, c.start, c.end)
		slack := c.end.Sub(c.start) - c.reported
		if slack < 0 {
			slack = 0
		}
		add("remote_exec", id, c.start.Add(slack/2), c.end.Add(-slack/2))
	}
	for _, r := range t.resolves {
		add("resolve", 1, r[0], r[1])
	}
	for i := range out {
		out[i].Workload, out[i].Query, out[i].ID = workload, t.id, i
	}
	return out
}

// selfTimes returns, per span of one query, its duration minus the
// part of it its children cover (children may overlap each other, as
// parallel shards do).
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var kids [][2]int64
		for _, c := range spans {
			if c.Parent == i {
				kids = append(kids, [2]int64{c.Start, c.End})
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			if k[1] <= reach {
				continue
			}
			covered += k[1] - max(k[0], reach)
			reach = k[1]
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
