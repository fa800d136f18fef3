package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"sparta/internal/corpus"
	"sparta/internal/index"
	"sparta/internal/liveindex"
	"sparta/internal/model"
	"sparta/internal/queries"
	"sparta/internal/topk"
	"sparta/internal/xrand"
)

const (
	// blockLen and logBlocks shape the arrival logs (see arrivals): an
	// open_idle round is exactly one block, and no run comes near the
	// end of the log before it cycles.
	blockLen  = 60
	logBlocks = 512
	// poolSeed fixes the query pools the way corpus.DefaultSpec fixes
	// the documents: they are the data set.
	poolSeed = 2020
)

// config is one invocation.
type config struct {
	workloads []spec
	seed      uint64
	seconds   float64 // measured time per workload, split into sc.rounds rounds
	trace     bool
	sc        scale
	outDir    string // span files, temporary shard and live directories
}

// env is what every workload's set-up shares.
type env struct {
	sc   scale
	corp *corpus.Corpus
	mem  *index.Index // rebuilt by every timed set-up; the last one serves
	// indexBuild is how long each of those builds took, in seconds.
	indexBuild []float64
	tmpRoot    string
}

type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// workloadReport is one workload's outcome.
type workloadReport struct {
	Name      string `json:"name"`
	Rounds    int    `json:"rounds"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Correct   bool   `json:"correct"`
	// Pooled marks a workload whose rounds are stages, not repetitions:
	// its values are computed over all rounds together (see pooled).
	Pooled   bool             `json:"pooled,omitempty"`
	Problems []string         `json:"problems,omitempty"`
	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	Layers   map[string]value `json:"layers,omitempty"`
}

// report is the benchmark's one JSON document.
type report struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadReport `json:"workloads"`
}

func hostStamp() host {
	h := host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// running is one workload in flight.
type running struct {
	spec   spec
	st     *stack
	gen    *loadgen
	setup  []float64 // seconds, one per timed set-up
	rounds []*round
	mem    [][2]runtime.MemStats // traced rounds: allocator state either side
	probe  *round                // traced open loops: the batching-off admission probe
	spans  []span
}

func runBenchmark(cfg config) (*report, error) {
	epoch := time.Now()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmpRoot, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpRoot)

	e := &env{sc: cfg.sc, corp: corpus.New(cfg.sc.corpus), tmpRoot: tmpRoot}
	runs := make([]*running, len(cfg.workloads))
	for i, w := range cfg.workloads {
		runs[i] = &running{spec: w}
	}
	defer func() {
		for _, r := range runs {
			if r.st != nil {
				r.st.close()
			}
		}
	}()

	// Set-up, timed setupReps times so setup_s is a median: the shared
	// in-memory index build plus each workload's own store, servers or
	// seeded live index. The last build of each is the one that serves.
	for rep := 0; rep < cfg.sc.setupReps; rep++ {
		t0 := time.Now()
		e.mem = index.FromCorpus(e.corp)
		shared := time.Since(t0).Seconds()
		e.indexBuild = append(e.indexBuild, shared)
		for _, r := range runs {
			if r.st != nil {
				if err := r.st.close(); err != nil {
					return nil, fmt.Errorf("%s: closing set-up %d: %w", r.spec.name, rep, err)
				}
				r.st = nil
			}
			t0 := time.Now()
			st, err := r.spec.build(e, cfg.trace)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", r.spec.name, err)
			}
			r.st = st
			r.setup = append(r.setup, shared+time.Since(t0).Seconds())
		}
	}

	e.arrivals(runs, cfg.seed)

	// One discarded warm-up round, then the measured rounds, round-robin
	// over the workloads so machine drift lands on all of them alike. A
	// traced run alternates traced and untraced rounds: the traced ones
	// give the per-layer numbers, the untraced ones the reference the
	// tracing overhead is measured against. No round is both.
	roundDur := time.Duration(cfg.seconds / float64(cfg.sc.rounds) * float64(time.Second))
	for i := -1; i < cfg.sc.rounds; i++ {
		traced := cfg.trace && i%2 == 0
		for _, r := range runs {
			var m [2]runtime.MemStats
			if traced {
				runtime.ReadMemStats(&m[0])
			}
			rd, err := r.gen.run(roundDur, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.spec.name, err)
			}
			if traced {
				runtime.ReadMemStats(&m[1])
			}
			if i >= 0 {
				r.rounds = append(r.rounds, rd)
				r.mem = append(r.mem, m)
			}
		}
	}
	if cfg.trace {
		for _, r := range runs {
			if r.st.probe != nil {
				probe := &loadgen{w: r.spec, st: r.st, pool: r.gen.pool, log: r.gen.log, search: r.st.probe.SearchContext}
				var err error
				if r.probe, err = probe.run(roundDur, true); err != nil {
					return nil, fmt.Errorf("%s: %w", r.spec.name, err)
				}
			}
		}
	}

	rep := &report{Host: hostStamp(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	for _, r := range runs {
		wr, err := e.finish(r, cfg, epoch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.spec.name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// arrivals builds each workload's query pool and its arrival log.
//
// The pools are the data set, fixed like the corpus. The log is cut
// into blocks of blockLen arrivals; every block holds the voice mix's
// share of each query length (or, on the long workload, 12-term
// queries only), taken from the pools in rotation, so which queries a
// stretch of the log holds does not depend on the seed. What the seed
// decides is the order of arrival within each block - which queries
// meet in a batch, run side by side, or find each other's blocks in a
// cache. Runs at different seeds therefore measure the same work
// differently interleaved, and differ by no more than that.
func (e *env) arrivals(runs []*running, seed uint64) {
	voice := queries.Generate(e.mem, queries.MaxLen, e.sc.perLength, poolSeed)
	var voicePool []model.Query
	for l := 1; l <= voice.MaxLen(); l++ {
		voicePool = append(voicePool, voice.Length(l)...)
	}
	longPool := queries.Generate(e.mem, queries.MaxLen, e.sc.longPool, poolSeed+1).Length(queries.MaxLen)
	perBlock := voiceMixCounts(blockLen)

	for i, r := range runs {
		rng := xrand.New(seed*1_000_003 + uint64(i))
		g := &loadgen{w: r.spec, st: r.st, pool: voicePool}
		if r.spec.long {
			g.pool = longPool
		}
		for b := 0; b < logBlocks; b++ {
			block := make([]int32, 0, blockLen)
			if r.spec.long {
				for j := 0; j < blockLen; j++ {
					block = append(block, int32((b*blockLen+j)%len(longPool)))
				}
			} else {
				for l, n := range perBlock {
					for j := 0; j < n; j++ {
						block = append(block, int32(l*e.sc.perLength+(b*n+j)%e.sc.perLength))
					}
				}
			}
			for j := len(block) - 1; j > 0; j-- {
				k := rng.Intn(j + 1)
				block[j], block[k] = block[k], block[j]
			}
			g.log = append(g.log, block...)
		}
		if r.st.live != nil {
			g.pool = foldTerms(voicePool, r.st.live.NumTerms())
		}
		r.gen = g
	}
}

// voiceMixCounts splits n arrivals over query lengths 1..12 in the
// proportions of the paper's voice-query mix (a normal with the AOL
// log's mean and deviation, truncated to that range), read off the
// repository's own sampler and rounded by largest remainder.
func voiceMixCounts(n int) []int {
	const draws = 200_000
	rng := xrand.New(poolSeed)
	hist := make([]float64, queries.MaxLen)
	for i := 0; i < draws; i++ {
		hist[rng.TruncNormInt(queries.VoiceMean, queries.VoiceSD, 1, queries.MaxLen)-1]++
	}
	counts := make([]int, len(hist))
	left := n
	for l, h := range hist {
		hist[l] = h / draws * float64(n)
		counts[l] = int(hist[l])
		left -= counts[l]
	}
	for ; left > 0; left-- {
		best := 0
		for l := range hist {
			if hist[l]-float64(counts[l]) > hist[best]-float64(counts[best]) {
				best = l
			}
		}
		counts[best]++
	}
	return counts
}

// foldTerms maps every query into a dictionary of nTerms terms (the
// live index's at the moment its writer starts), dropping terms that
// collide, so each query is well formed from the first one issued.
func foldTerms(pool []model.Query, nTerms int) []model.Query {
	out := make([]model.Query, len(pool))
	for i, q := range pool {
		seen := make(map[model.TermID]bool, len(q))
		for _, t := range q {
			t %= model.TermID(nTerms)
			if !seen[t] {
				seen[t] = true
				out[i] = append(out[i], t)
			}
		}
	}
	return out
}

// groundTruth computes brute-force answers over the in-memory index
// for the pool entries the measured rounds used, once each, and how
// long each took (the cost with no early stopping at all).
func (e *env) groundTruth(r *running) ([]model.TopK, []time.Duration) {
	truth := make([]model.TopK, len(r.gen.pool))
	used := make([]bool, len(r.gen.pool))
	var todo []int32
	for _, rd := range r.rounds {
		for _, rec := range rd.recs {
			if !used[rec.idx] {
				used[rec.idx] = true
				todo = append(todo, rec.idx)
			}
		}
	}
	cost := make([]time.Duration, len(todo))
	var wg sync.WaitGroup
	workers := 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < len(todo); j += workers {
				t0 := time.Now()
				truth[todo[j]] = topk.BruteForce(e.mem, r.gen.pool[todo[j]], retrievalK)
				cost[j] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return truth, cost
}

// judge checks one round's answers. A query fails on an error, a stop
// forced from outside (cancelled, deadline, shed), a dropped shard, a
// result length other than the truth's, or - on exact workloads - any
// byte differing from brute force. truth is nil on the live workload,
// whose queries race the writer: there an answer must only be well
// formed, and identity is checked afterwards on a quiescent index. A
// round that left I/O unsettled fails every query in it.
func judge(w spec, rd *round, truth []model.TopK) (failed int, recall float64, problems []string) {
	if rd.unsettled != 0 {
		problems = append(problems, fmt.Sprintf("round left %v of simulated I/O unsettled", rd.unsettled))
	}
	if rd.violations != 0 {
		problems = append(problems, fmt.Sprintf("shard servers counted %d unsettled violations", rd.violations))
	}
	var recallSum float64
	var examples []string
	for _, rec := range rd.recs {
		ok := rec.err == nil && rec.st.ShardsDropped == 0
		switch rec.st.StopReason {
		case topk.StopCancelled, topk.StopDeadline, topk.StopShed:
			ok = false
		}
		if truth == nil {
			ok = ok && len(rec.res) <= retrievalK
		} else {
			want := truth[rec.idx]
			ok = ok && len(rec.res) == len(want)
			if w.exact {
				ok = ok && slices.Equal(rec.res, want)
			}
			recallSum += model.Recall(want, rec.res)
		}
		if !ok && len(examples) < 3 {
			// A few failures in full, so a red run says what went wrong.
			detail := fmt.Sprintf("query %v: err %v, stop %q, %d shards dropped, got %v", rec.idx, rec.err, rec.st.StopReason, rec.st.ShardsDropped, rec.res)
			if truth != nil {
				detail += fmt.Sprintf(", want %v", truth[rec.idx])
			}
			examples = append(examples, detail)
		}
		if !ok || len(problems) > 0 {
			failed++
		}
	}
	return failed + rd.appendFails, ratio(recallSum, float64(len(rd.recs))), append(problems, examples...)
}

// finish judges a workload's rounds and folds them into its report.
func (e *env) finish(r *running, cfg config, epoch time.Time) (workloadReport, error) {
	wr := workloadReport{Name: r.spec.name, Rounds: len(r.rounds)}
	var truth []model.TopK
	var bruteCost []time.Duration
	var live liveCheck
	if r.st.live != nil {
		var err error
		if live, err = e.checkLive(r); err != nil {
			return wr, err
		}
		wr.Attempted += live.attempted
		wr.Failed += live.failed
		wr.Problems = append(wr.Problems, live.problems...)
	} else {
		truth, bruteCost = e.groundTruth(r)
	}

	perRound := map[string][]float64{}
	layerRounds := map[string][]float64{}
	var tracedP50, untracedP50 []float64
	for i, rd := range r.rounds {
		failed, recall, problems := judge(r.spec, rd, truth)
		wr.Attempted += len(rd.recs) + len(rd.appends)
		wr.Failed += failed
		wr.Problems = append(wr.Problems, problems...)
		if truth == nil {
			recall = live.recall
		}
		lat := make([]float64, len(rd.recs))
		for j, rec := range rd.recs {
			lat[j] = ms(rec.lat())
		}
		lat = sorted(lat)
		p50 := quantile(lat, 0.5)
		if rd.traced {
			tracedP50 = append(tracedP50, p50)
			for k, v := range layerValues(r.gen, rd, &r.mem[i][0], &r.mem[i][1]) {
				layerRounds[k] = append(layerRounds[k], v)
			}
			for _, rec := range rd.recs {
				r.spans = append(r.spans, rec.tr.spans(r.spec.name, r.st.entry, epoch, rec.due, rec.start, rec.end)...)
			}
			continue
		}
		untracedP50 = append(untracedP50, p50)
		n := float64(len(rd.recs))
		perRound["qps"] = append(perRound["qps"], ratio(n, rd.elapsed.Seconds()))
		perRound["p50_ms"] = append(perRound["p50_ms"], p50)
		perRound["p95_ms"] = append(perRound["p95_ms"], quantile(lat, 0.95))
		perRound["cpu_ms_per_query"] = append(perRound["cpu_ms_per_query"], ratio(ms(rd.cpu), n))
		perRound["recall_at_k"] = append(perRound["recall_at_k"], recall)
	}
	perRound["setup_s"] = r.setup
	wr.Correct = wr.Failed == 0 && len(wr.Problems) == 0

	if !cfg.trace {
		wr.EndToEnd = map[string]value{}
		for _, m := range endToEnd {
			wr.EndToEnd[m.name] = summarize(perRound[m.name], m.unit)
		}
		if r.spec.growing {
			wr.Pooled = true
			r.pooled(wr.EndToEnd)
		}
		return wr, nil
	}

	// Measurements taken once, outside the rounds.
	once := map[string]float64{
		"index.build_s":                median(e.indexBuild),
		"index.postings":               float64(e.mem.TotalPostings()),
		"process.trace_overhead_share": ratio(median(tracedP50)-median(untracedP50), median(untracedP50)),
		"topk.bruteforce_ms_p50":       median(msOf(bruteCost)),
		"liveindex.reopen_s":           live.reopenS,
	}
	for k, v := range r.st.buildS {
		once[k] = v
	}
	if r.probe != nil {
		var wait []float64
		for _, rec := range r.probe.recs {
			if !rec.tr.admitted.IsZero() {
				wait = append(wait, ms(rec.tr.admitted.Sub(rec.start)))
			}
		}
		wait = sorted(wait)
		once["searcher.admit_wait_ms_p50"] = quantile(wait, 0.5)
		once["searcher.admit_wait_ms_p95"] = quantile(wait, 0.95)
	}
	if err := e.micro(r, once); err != nil {
		return wr, err
	}
	// The decode floor: what the traversed postings would cost at the
	// codec's bare decode rate, as a share of what execution took.
	if ns := median(layerRounds["core.ns_per_posting"]); ns > 0 {
		once["core.decode_floor_share"] = once["codec.decode_doc_ns_per_posting"] / ns
	}

	wr.Layers = map[string]value{}
	for _, m := range perLayer {
		if v, ok := once[m.name]; ok {
			wr.Layers[m.name] = value{Median: v, Min: v, Max: v, Unit: m.unit}
		} else {
			wr.Layers[m.name] = summarize(layerRounds[m.name], m.unit)
		}
	}
	path := filepath.Join(cfg.outDir, "spans-"+r.spec.name+".jsonl")
	if err := writeSpans(path, r.spans); err != nil {
		return wr, fmt.Errorf("writing spans: %w", err)
	}
	return wr, nil
}

// pooled replaces the medians of a growing workload's per-round
// metrics with values computed over all its rounds together. Its
// rounds are successive stages of one index, each slower than the
// last, not repetitions of one measurement: the median of five stages
// is the third stage alone, and a fifth of the run decides the number.
func (r *running) pooled(m map[string]value) {
	var lat []float64
	var n, elapsed, cpu float64
	for _, rd := range r.rounds {
		for _, rec := range rd.recs {
			lat = append(lat, ms(rec.lat()))
		}
		n += float64(len(rd.recs))
		elapsed += rd.elapsed.Seconds()
		cpu += ms(rd.cpu)
	}
	lat = sorted(lat)
	for name, v := range map[string]float64{
		"qps":              ratio(n, elapsed),
		"p50_ms":           quantile(lat, 0.5),
		"p95_ms":           quantile(lat, 0.95),
		"cpu_ms_per_query": ratio(cpu, n),
	} {
		x := m[name]
		x.Median = v
		m[name] = x
	}
}

// liveCheck is the outcome of the live workload's post-run checks.
type liveCheck struct {
	attempted, failed int
	recall            float64
	reopenS           float64
	problems          []string
}

// checkLive closes and reopens the live index, so what it asserts is
// what survived the WAL and the manifests: the document count equals
// the acknowledged appends, and a check set of exact queries answers
// byte for byte like brute force over a one-shot build of the same
// documents.
func (e *env) checkLive(r *running) (liveCheck, error) {
	var lc liveCheck
	acked := r.st.writer.next
	if err := r.st.live.Close(); err != nil {
		return lc, fmt.Errorf("closing the live index: %w", err)
	}
	r.st.live = nil
	t0 := time.Now()
	reopened, err := liveindex.Open(r.st.dir, liveConfig())
	if err != nil {
		return lc, fmt.Errorf("reopening the live index: %w", err)
	}
	lc.reopenS = time.Since(t0).Seconds()
	r.st.live = reopened
	if got := reopened.NumDocs(); got != acked {
		lc.problems = append(lc.problems, fmt.Sprintf("reopened live index holds %d documents, %d were acknowledged", got, acked))
	}

	b := index.NewBuilder()
	for i := 0; i < acked; i++ {
		b.AddBag(e.corp.Doc(model.DocID(i)))
	}
	oneShot := b.Build()
	var recallSum float64
	for i := 0; i < e.sc.checkQueries; i++ {
		q := r.gen.pool[r.gen.log[i]]
		want := topk.BruteForce(oneShot, q, retrievalK)
		got, _, err := reopened.SearchContext(context.Background(), q, r.spec.opts)
		lc.attempted++
		if err != nil || !slices.Equal(got, want) {
			lc.failed++
		}
		recallSum += model.Recall(want, got)
	}
	lc.recall = ratio(recallSum, float64(lc.attempted))
	if d := reopened.Unsettled(); d != 0 {
		lc.problems = append(lc.problems, fmt.Sprintf("check queries left %v unsettled", d))
	}
	return lc, nil
}
