// Package sched implements the throughput-evaluation methodology of
// §5.1: "queries are scheduled first-come-first-served, and a new query
// is scheduled for execution (i.e., assigned threads) once there are
// idle threads with no outstanding work from currently executing
// queries. All queries scheduled for execution equally share the
// thread pool."
//
// The repository's algorithms create their intra-query worker pools
// internally, so the shared pool is modeled as a pool of thread tokens:
// a query acquires up to its desired parallelism in tokens (at least
// one, blocking FCFS while none are free), runs with that many worker
// threads, and returns the tokens when it completes. This yields the
// same admission behaviour — queries start as soon as any thread is
// idle, and concurrent queries split the hardware between them.
package sched

import (
	"sync"
	"time"

	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/stats"
	"sparta/internal/topk"
)

// Result summarizes a throughput run.
type Result struct {
	// Queries is the number of queries completed.
	Queries int
	// Wall is the makespan of the run.
	Wall time.Duration
	// QPS is Queries / Wall in queries per second.
	QPS float64
	// Latency is the per-query latency sample (admission wait included,
	// as a user would experience it).
	Latency *stats.Sample
	// Errors counts failed queries (e.g. memory-budget aborts).
	Errors int
}

// freshBudget clones a budget's limit for one query.
func freshBudget(b *membudget.Budget) *membudget.Budget {
	return membudget.New(b.Limit())
}

// tokenPool is the FCFS thread-token pool.
type tokenPool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	free  int
	queue int // waiters ahead, preserves FCFS admission
}

func newTokenPool(n int) *tokenPool {
	p := &tokenPool{free: n}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire blocks until at least one token is free, then takes up to
// want tokens, returning how many it got.
func (p *tokenPool) acquire(want int) int {
	if want < 1 {
		want = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.free == 0 {
		p.cond.Wait()
	}
	got := want
	if got > p.free {
		got = p.free
	}
	p.free -= got
	return got
}

func (p *tokenPool) release(n int) {
	p.mu.Lock()
	p.free += n
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Run drives the query stream through alg over a shared pool of
// poolSize threads. Each query requests parallelism equal to its term
// count (the paper's configuration for the parallel algorithms),
// bounded by what is free at admission. baseOpts carries K and the
// approximation knobs; Threads is overridden per query.
func Run(alg topk.Algorithm, queryStream []model.Query, poolSize int, baseOpts topk.Options) Result {
	return run(alg, queryStream, poolSize, baseOpts, func(q model.Query) int { return len(q) })
}

// run is the one admission loop: FCFS, each query asking the pool for
// want(q) threads.
func run(alg topk.Algorithm, queryStream []model.Query, poolSize int, baseOpts topk.Options, want func(model.Query) int) Result {
	pool := newTokenPool(poolSize)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		latency stats.Sample
		errs    int
	)
	start := time.Now()
	for _, q := range queryStream {
		// FCFS admission: acquire on the submitting goroutine in
		// stream order, then evaluate concurrently.
		got := pool.acquire(want(q))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pool.release(got)
			qStart := time.Now()
			opts := baseOpts
			opts.Threads = got
			// Each query gets its own memory budget of the same limit:
			// a crash (budget abort) is a per-query event, as in the
			// paper's JVM runs.
			if baseOpts.Budget != nil {
				opts.Budget = freshBudget(baseOpts.Budget)
			}
			_, _, err := alg.Search(q, opts)
			mu.Lock()
			latency.AddDuration(time.Since(qStart))
			if err != nil {
				errs++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	qps := 0.0
	if wall > 0 {
		qps = float64(len(queryStream)) / wall.Seconds()
	}
	return Result{
		Queries: len(queryStream),
		Wall:    wall,
		QPS:     qps,
		Latency: &latency,
		Errors:  errs,
	}
}
