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

// Pool runs submitted jobs on a fixed set of worker goroutines.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool

	active int // jobs currently executing
	idle   *sync.Cond

	wg sync.WaitGroup
}

// New starts a pool with the given number of workers (at least 1).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.active++
		p.mu.Unlock()

		job()

		p.mu.Lock()
		p.active--
		if p.active == 0 && len(p.queue) == 0 {
			p.idle.Broadcast()
		}
		p.mu.Unlock()
	}
}

// Submit enqueues a job. Jobs may Submit follow-on jobs. Submitting to
// a closed pool is a no-op (late self-re-enqueues during shutdown are
// dropped harmlessly).
func (p *Pool) Submit(job func()) {
	p.mu.Lock()
	if !p.closed {
		p.queue = append(p.queue, job)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Drain blocks until the queue is empty and no job is executing. A job
// submitted after Drain observes quiescence may still run later; Drain
// is for the "all posting lists exhausted" termination of a query whose
// jobs have stopped re-enqueueing.
func (p *Pool) Drain() {
	p.mu.Lock()
	for p.active > 0 || len(p.queue) > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// Close stops accepting jobs, discards queued-but-unstarted work, and
// waits for running jobs to finish.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
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
