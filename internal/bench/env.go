// Package bench is the experiment harness: it rebuilds every table and
// figure of the paper's evaluation (§5.3) over the synthetic corpora,
// the simulated storage stack, and the algorithm implementations of
// this repository. Each experiment function returns structured results
// that cmd/experiments formats into the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured.
package bench

import (
	"fmt"
	"sync"

	"sparta/internal/corpus"
	"sparta/internal/diskindex"
	"sparta/internal/index"
	"sparta/internal/iomodel"
	"sparta/internal/model"
	"sparta/internal/queries"
	"sparta/internal/topk"
)

// EnvOptions scales an experiment environment. The defaults reproduce
// the paper's setup at 1/1000 corpus scale with the retrieval depth
// scaled to preserve selectivity: the paper's k=1000 of 50M documents
// retrieves the top 2·10⁻⁵ of the corpus; k=10 of the default 500K-doc
// CWX10 retrieves 2·10⁻⁵ as well. Early-stopping behaviour — the thing
// every experiment measures — depends on this ratio, not on k alone
// (see EXPERIMENTS.md "Scaling the setup").
type EnvOptions struct {
	// K is the retrieval depth (default 10).
	K int
	// QueriesPerLength is the per-length pool size (default 20).
	QueriesPerLength int
	// Shards is the sNRA pre-partition count (default 12, as the paper).
	Shards int
	// Seed drives query generation (default 2020).
	Seed uint64
	// MemBudgetEntries caps each query's candidate-state memory at this
	// many DocState entries (default 200000) — the simulated "24 GB of
	// RAM" that pNRA and pJASS exhaust on the 10x corpus (their exact
	// variants peak above it there, Sparta's worst query well below). Zero
	// keeps the default; negative disables the budget.
	MemBudgetEntries int
}

func (o EnvOptions) withDefaults() EnvOptions {
	if o.K == 0 {
		o.K = 10
	}
	if o.QueriesPerLength == 0 {
		o.QueriesPerLength = 20
	}
	if o.Shards == 0 {
		o.Shards = diskindex.DefaultShards
	}
	if o.Seed == 0 {
		o.Seed = 2020
	}
	if o.MemBudgetEntries == 0 {
		o.MemBudgetEntries = 200_000
	}
	return o
}

// Env is a built experiment environment: a corpus indexed both in
// memory (ground truth) and on simulated disk (measurements), plus the
// query pools.
type Env struct {
	Spec corpus.Spec
	Opts EnvOptions
	Mem  *index.Index
	Disk *diskindex.Index
	Sets queries.Sets

	mu         sync.Mutex
	exactCache map[string]model.TopK
}

// NewEnv generates the corpus, builds both indexes, and samples the
// query pools. cfg configures the simulated storage.
func NewEnv(spec corpus.Spec, cfg iomodel.Config, opts EnvOptions) (*Env, error) {
	opts = opts.withDefaults()
	c := corpus.New(spec)
	mem := index.FromCorpus(c)
	disk, err := diskindex.FromIndex(mem, opts.Shards, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: building disk index for %s: %w", spec.Name, err)
	}
	sets := queries.Generate(mem, queries.MaxLen, opts.QueriesPerLength, opts.Seed)
	return &Env{
		Spec:       spec,
		Opts:       opts,
		Mem:        mem,
		Disk:       disk,
		Sets:       sets,
		exactCache: make(map[string]model.TopK),
	}, nil
}

// Exact returns the ground-truth top-k for q, computed once by brute
// force over the in-memory index (no I/O charges) and cached.
func (e *Env) Exact(q model.Query) model.TopK {
	key := q.String()
	e.mu.Lock()
	res, ok := e.exactCache[key]
	e.mu.Unlock()
	if ok {
		return res
	}
	res = topk.BruteForce(e.Mem, q, e.Opts.K)
	e.mu.Lock()
	e.exactCache[key] = res
	e.mu.Unlock()
	return res
}

// FlushAndReset empties the simulated page cache and zeroes the I/O
// counters — §5.1's pre-experiment page-cache flush.
func (e *Env) FlushAndReset() {
	e.Disk.Store().Flush()
	e.Disk.Store().ResetStats()
}

// Describe returns a one-line environment summary for reports.
func (e *Env) Describe() string {
	return fmt.Sprintf("%s: %d docs, %d terms, %d postings, k=%d, %d queries/length",
		e.Spec.Name, e.Mem.NumDocs(), e.Mem.NumTerms(), e.Mem.TotalPostings(),
		e.Opts.K, e.Opts.QueriesPerLength)
}
