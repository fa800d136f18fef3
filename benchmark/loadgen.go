package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sparta/internal/corpus"
	"sparta/internal/liveindex"
	"sparta/internal/model"
	"sparta/internal/topk"
)

// record is one completed query: which pool entry it was, when it was
// due, issued and answered, and what came back. Answers are checked
// after the round, outside every timed region.
type record struct {
	idx             int32
	due, start, end time.Time
	res             model.TopK
	st              topk.Stats
	err             error
	tr              *qtrace // traced rounds only
}

// lat is the latency a user saw: from when the request was due (an
// open loop's schedule, a closed loop's issue instant) to its answer.
func (r record) lat() time.Duration { return r.end.Sub(r.due) }

// round is one timed slice of a workload's load.
type round struct {
	traced  bool
	elapsed time.Duration
	recs    []record
	cpu     time.Duration   // process user+system CPU spent during the round
	lag     []time.Duration // open loops: how late the generator fired each arrival

	// live_ingest: the writer's appends during the round.
	appends     []time.Duration
	appendFails int
	walBytes    int64 // WAL growth summed over appends that did not flush
	walDocs     int

	// Layer counters either side of the round, and the state the
	// invariants are checked on once the round has drained.
	before, after counters
	unsettled     time.Duration
	violations    int64
}

// loadgen issues one workload's queries against its stack.
type loadgen struct {
	w      spec
	st     *stack
	pool   []model.Query
	log    []int32 // pool indices in arrival order, cycled
	next   atomic.Int64
	lastID atomic.Int64
	// search overrides st.search (the admission probe).
	search searchFn
}

func (g *loadgen) nextIdx() int32 {
	i := g.next.Add(1) - 1
	return g.log[int(i%int64(len(g.log)))]
}

// issue runs one query to completion. A zero due means "now": a closed
// loop's request is due the moment its client is free.
func (g *loadgen) issue(idx int32, due time.Time, traced bool) record {
	opts := g.w.opts
	ctx := context.Background()
	var tr *qtrace
	if traced {
		tr = &qtrace{id: g.lastID.Add(1)}
		opts.Observer = tr
		ctx = withTrace(ctx, tr)
	}
	search := g.search
	if search == nil {
		search = g.st.search
	}
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	res, st, err := search(ctx, g.pool[idx], opts)
	return record{idx: idx, due: due, start: start, end: time.Now(), res: res, st: st, err: err, tr: tr}
}

// run drives one round of dur and leaves the stack quiescent.
func (g *loadgen) run(dur time.Duration, traced bool) (*round, error) {
	rd := &round{traced: traced, before: g.st.snapshot()}
	cpu0 := processCPU()
	start := time.Now()
	if g.w.open {
		g.openLoop(rd, start, dur, traced)
	} else {
		g.closedLoop(rd, start.Add(dur), traced)
	}
	rd.elapsed = time.Since(start)
	rd.cpu = processCPU() - cpu0
	if err := g.st.drain(); err != nil {
		return nil, err
	}
	rd.after = g.st.snapshot()
	rd.unsettled = g.st.unsettled()
	rd.violations = g.st.violations()
	return rd, nil
}

// closedLoop runs the workload's clients, each issuing its next query
// when the previous one returns, until the deadline; a live stack's
// writer appends beside them.
func (g *loadgen) closedLoop(rd *round, deadline time.Time, traced bool) {
	perClient := make([][]record, g.w.clients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				perClient[c] = append(perClient[c], g.issue(g.nextIdx(), time.Time{}, traced))
			}
		}()
	}
	if w := g.st.writer; w != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.appendUntil(deadline, rd, traced)
		}()
	}
	wg.Wait()
	for _, recs := range perClient {
		rd.recs = append(rd.recs, recs...)
	}
}

// openLoop fires burst requests at every tick of a fixed schedule,
// each in its own goroutine, whether or not earlier ones have
// returned, and waits for the stragglers once the schedule ends.
func (g *loadgen) openLoop(rd *round, start time.Time, dur time.Duration, traced bool) {
	ticks := int(dur / openTick)
	if ticks < 1 {
		ticks = 1
	}
	rd.recs = make([]record, ticks*g.w.burst)
	rd.lag = make([]time.Duration, ticks)
	var wg sync.WaitGroup
	for t := 0; t < ticks; t++ {
		due := start.Add(time.Duration(t) * openTick)
		sleepUntil(due)
		rd.lag[t] = time.Since(due)
		for b := 0; b < g.w.burst; b++ {
			slot, idx := t*g.w.burst+b, g.nextIdx()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rd.recs[slot] = g.issue(idx, due, traced)
			}()
		}
	}
	wg.Wait()
}

// spinMargin is how long before an arrival the generator stops
// sleeping and polls the clock instead. A sleeping thread on an idle
// virtual CPU wakes up to a millisecond late on the hosts this runs
// on, and that lateness would be charged to every request of the
// arrival; polling costs the generator a tenth of one core.
const spinMargin = 2 * time.Millisecond

func sleepUntil(due time.Time) {
	if d := time.Until(due) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// liveWriter streams the corpus into a live index one document at a
// time, each WAL-synced before it is acknowledged. It is paced: every
// round it appends one memtable's worth of documents (liveFlushDocs),
// evenly spread over the round - about two thirds of what the append
// path sustains - so that every round fills the memtable from empty
// and ends on its flush, and the index the queries see is in the same
// state at the same point of every run. An append that finds itself
// behind schedule goes at once, and is timed, like an open loop's
// request, from when it was due.
type liveWriter struct {
	live *liveindex.Live
	corp *corpus.Corpus
	next int // the next corpus document; all before it are acknowledged
}

func (w *liveWriter) appendUntil(deadline time.Time, rd *round, traced bool) {
	due := time.Now()
	tick := deadline.Sub(due) / liveFlushDocs
	for i := 0; i < liveFlushDocs && due.Before(deadline) && w.next < w.corp.NumDocs(); i, due = i+1, due.Add(tick) {
		bag := w.corp.Doc(model.DocID(w.next))
		time.Sleep(time.Until(due))
		var wal0 int64
		if traced {
			wal0 = w.live.WALBytes()
		}
		_, err := w.live.AppendBag(bag)
		rd.appends = append(rd.appends, time.Since(due))
		if err != nil {
			// The document was not acknowledged; the next append sends it again.
			rd.appendFails++
			continue
		}
		w.next++
		if traced {
			// The log is truncated when the memtable flushes; only appends
			// that grew it say what one document costs there.
			if grew := w.live.WALBytes() - wal0; grew > 0 {
				rd.walBytes += grew
				rd.walDocs++
			}
		}
	}
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set, in MB (Linux reports kB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
