// Package jobqueue provides the shared work queue the parallel
// algorithms schedule on. Sparta "divide[s] posting list traversals to
// segments ... and use[s] a job queue to allocate posting list segments
// to threads"; a worker finishing a segment "inserts into the queue a
// new task for scanning the next segment" (§4.2), and pBMW's threads
// "obtain jobs from a common job queue" of document-id ranges (§5.2.1).
//
// The queue is unbounded (a mutex-guarded slice with a condition
// variable), so self-perpetuating jobs can always re-enqueue without
// deadlock, and FIFO, so posting lists advance at the same rate modulo
// the segment size, as the paper's round-robin scheduling requires.
package jobqueue

import (
	"sync"
	"sync/atomic"
)

// Pool runs submitted jobs on a fixed number of workers, the first of
// which is the goroutine that waits for the work: New(n) starts n−1
// goroutines and the owner's Drain or Run call is the n-th worker, so a
// query run with one thread never leaves the goroutine that submitted it
// and a wider one saves a goroutine and the wake-ups of handing the
// first job over and the result back.
type Pool struct {
	mu sync.Mutex
	// cond is signalled when a job is queued and broadcast when the pool
	// stops or falls quiet (no job queued or executing).
	cond   *sync.Cond
	queue  []func()
	closed bool
	active int // jobs currently executing

	wg sync.WaitGroup // the goroutines New started
}

// New returns a pool of the given number of workers (at least 1),
// counting the caller of Drain or Run as one: jobs submitted to a
// one-worker pool run only inside those calls.
func New(workers int) *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	for i := 1; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work(false)
		}()
	}
	return p
}

// work runs queued jobs on the calling goroutine until the pool is
// stopped or, when untilQuiet, until no job is queued or executing.
func (p *Pool) work(untilQuiet bool) {
	p.mu.Lock()
	for {
		for len(p.queue) == 0 && !p.closed && !(untilQuiet && p.active == 0) {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			break // stopped (Stop empties the queue) or quiet
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.active++
		p.mu.Unlock()

		job()

		p.mu.Lock()
		p.active--
		if p.active == 0 && len(p.queue) == 0 {
			p.cond.Broadcast()
		}
	}
	p.mu.Unlock()
}

// Submit enqueues a job. Jobs may Submit follow-on jobs. Submitting to
// a stopped pool is a no-op (late self-re-enqueues during shutdown are
// dropped harmlessly).
func (p *Pool) Submit(job func()) {
	p.mu.Lock()
	if !p.closed {
		p.queue = append(p.queue, job)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Drain runs jobs on the calling goroutine until the queue is empty and
// no job is executing. A job submitted after Drain observes quiescence
// may still run later; Drain is for the "all posting lists exhausted"
// termination of a query whose jobs have stopped re-enqueueing.
func (p *Pool) Drain() { p.work(true) }

// Run runs jobs on the calling goroutine until Stop: the wait of a
// query that something other than an empty queue ends (a stopping
// condition met inside a job, a timer).
func (p *Pool) Run() { p.work(false) }

// Stop stops accepting jobs and discards queued-but-unstarted work
// without waiting for running jobs, so a job may call it.
func (p *Pool) Stop() {
	p.mu.Lock()
	p.closed = true
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Close stops the pool and waits for the jobs running on its own
// goroutines to finish. Call it from outside the pool's jobs.
func (p *Pool) Close() {
	p.Stop()
	p.wg.Wait()
}

// CloseAfterDrain waits for all work to finish, then shuts down.
func (p *Pool) CloseAfterDrain() {
	p.Drain()
	p.Close()
}

// EventJob is a self-perpetuating background job that runs on a Pool
// only while something has happened that could change its outcome —
// Sparta's cleaner, pNRA's stop checker. A pass that ends without
// finishing the query does not requeue itself and does not sleep on its
// worker: it parks, and the next Notify submits it again. Every Notify
// also advances an event counter; a pass reads the counter (Epoch)
// before it reads any state the events announce and hands it back to
// Park, which resubmits at once if an event arrived during the pass —
// so no wake-up is lost between a pass's last look and its parking.
//
// At most one pass is queued or running per transition out of the
// parked state; a pass that must not overlap its successor's first
// instructions makes Park its last action.
type EventJob struct {
	pool   *Pool
	job    func()
	events atomic.Uint64
	parked atomic.Bool
}

// NewEventJob binds job to pool. Nothing runs until Start.
func NewEventJob(pool *Pool, job func()) *EventJob {
	return &EventJob{pool: pool, job: job}
}

// Start submits the first pass. Call it once.
func (e *EventJob) Start() { e.pool.Submit(e.job) }

// Epoch returns the event count a pass starts from.
func (e *EventJob) Epoch() uint64 { return e.events.Load() }

// Park ends a pass that started at epoch: it resubmits the job if an
// event has arrived since, and otherwise leaves it parked for the next
// Notify to resubmit.
func (e *EventJob) Park(epoch uint64) {
	e.parked.Store(true)
	// Either this load sees a concurrent Notify's increment, or that
	// Notify's load sees parked; the compare-and-swap lets exactly one
	// of the two resubmit.
	if e.events.Load() != epoch && e.parked.CompareAndSwap(true, false) {
		e.pool.Submit(e.job)
	}
}

// Notify records an event and resubmits the job if it is parked. It is
// cheap enough for once-per-segment call sites: one atomic add and one
// load when nothing is parked.
func (e *EventJob) Notify() {
	e.events.Add(1)
	if e.parked.Load() && e.parked.CompareAndSwap(true, false) {
		e.pool.Submit(e.job)
	}
}
