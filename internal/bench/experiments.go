package bench

import (
	"errors"
	"time"

	"sparta/internal/membudget"
	"sparta/internal/model"
	"sparta/internal/sched"
	"sparta/internal/stats"
	"sparta/internal/topk"
)

// LatencyCell aggregates one (variant, x) measurement cell.
type LatencyCell struct {
	Label  string
	Mean   float64 // ms
	P95    float64 // ms
	Recall float64
	NA     bool // the variant crashed (memory budget) at this point
	// Postings is the mean number of postings traversed — the
	// machine-independent work metric reported alongside latency.
	Postings float64
}

// SweepPoint is one x-axis position of a latency/throughput figure.
type SweepPoint struct {
	X     int // query length or thread count
	Cells []LatencyCell
}

// runVariant evaluates the given queries one at a time (latency
// methodology: a single query owns the pool) and aggregates.
func (e *Env) runVariant(v Variant, qs []model.Query, threads int) LatencyCell {
	cell := LatencyCell{Label: v.Label}
	var lat stats.Sample
	var recall stats.Sample
	var post stats.Sample
	for _, q := range qs {
		opts := v.Opts
		opts.Threads = threads
		alg := MakeAlgorithm(v.ID, e.Disk)
		res, st, err := alg.Search(q, opts)
		if err != nil {
			if errors.Is(err, membudget.ErrMemoryBudget) {
				cell.NA = true
				return cell
			}
			cell.NA = true
			return cell
		}
		lat.AddDuration(st.Duration)
		post.Add(float64(st.Postings))
		recall.Add(model.Recall(e.Exact(q), res))
	}
	cell.Mean = lat.Mean()
	cell.P95 = lat.Percentile(95)
	cell.Recall = recall.Mean()
	cell.Postings = post.Mean()
	return cell
}

// RunTable2 reproduces Table 2: mean latency of 12-term queries under
// the exact algorithms with full intra-query parallelism (12 threads).
// N/A marks memory-budget crashes, as in the paper.
func (e *Env) RunTable2(nQueries, threads int) SweepPoint {
	qs := e.pick(queriesMaxLen, nQueries)
	point := SweepPoint{X: queriesMaxLen}
	for _, v := range e.ExactVariants() {
		e.FlushAndReset()
		point.Cells = append(point.Cells, e.runVariant(v, qs, threads))
	}
	return point
}

const queriesMaxLen = 12

// RunTable3 reproduces Table 3: recall of the approximate variants on
// 12-term queries.
func (e *Env) RunTable3(t Tuning, nQueries, threads int) SweepPoint {
	qs := e.pick(queriesMaxLen, nQueries)
	point := SweepPoint{X: queriesMaxLen}
	for _, v := range append(e.HighVariants(t), e.LowVariants(t)...) {
		e.FlushAndReset()
		point.Cells = append(point.Cells, e.runVariant(v, qs, threads))
	}
	return point
}

// RunLatencySweep reproduces the latency-vs-query-length figures
// (3a–3e): for each length the intra-query parallelism equals the
// number of terms.
func (e *Env) RunLatencySweep(variants []Variant, lengths []int, nQueries int) []SweepPoint {
	out := make([]SweepPoint, 0, len(lengths))
	for _, l := range lengths {
		qs := e.pick(l, nQueries)
		point := SweepPoint{X: l}
		for _, v := range variants {
			e.FlushAndReset()
			point.Cells = append(point.Cells, e.runVariant(v, qs, l))
		}
		out = append(out, point)
	}
	return out
}

// RunParallelismSweep reproduces Figures 3h–3i: 12-term query latency
// with 1..maxThreads worker threads. The 1-thread point is the
// algorithm run sequentially.
func (e *Env) RunParallelismSweep(variants []Variant, threadCounts []int, nQueries int) []SweepPoint {
	qs := e.pick(queriesMaxLen, nQueries)
	out := make([]SweepPoint, 0, len(threadCounts))
	for _, th := range threadCounts {
		point := SweepPoint{X: th}
		for _, v := range variants {
			e.FlushAndReset()
			point.Cells = append(point.Cells, e.runVariant(v, qs, th))
		}
		out = append(out, point)
	}
	return out
}

// DynamicsSeries is one algorithm's recall-over-time curve.
type DynamicsSeries struct {
	Label  string
	Series *stats.Series
	NA     bool
}

// RunRecallDynamics reproduces Figures 3f–3g: recall as a function of
// elapsed time for 12-term queries at full parallelism, averaged over
// the query pool on a common time grid.
func (e *Env) RunRecallDynamics(variants []Variant, nQueries, threads int, step, horizon time.Duration) []DynamicsSeries {
	qs := e.pick(queriesMaxLen, nQueries)
	out := make([]DynamicsSeries, 0, len(variants))
	for _, v := range variants {
		e.FlushAndReset()
		var series []*stats.Series
		na := false
		for _, q := range qs {
			probe := topk.NewRecallProbe(e.Exact(q))
			opts := v.Opts
			opts.Threads = threads
			opts.Probe = probe
			alg := MakeAlgorithm(v.ID, e.Disk)
			if _, _, err := alg.Search(q, opts); err != nil {
				na = true
				break
			}
			series = append(series, probe.Series())
		}
		ds := DynamicsSeries{Label: v.Label, NA: na}
		if !na {
			ds.Series = stats.MergeMean(series, step, horizon)
		}
		out = append(out, ds)
	}
	return out
}

// ThroughputCell is one throughput measurement.
type ThroughputCell struct {
	Label string
	QPS   float64
	P95MS float64
	NA    bool
}

// RunThroughput reproduces Table 4: sustained queries/second on the
// production voice-query mix over a shared worker pool.
func (e *Env) RunThroughput(variants []Variant, poolSize, nQueries int) []ThroughputCell {
	stream := e.Sets.VoiceMix(nQueries, e.Opts.Seed+99)
	out := make([]ThroughputCell, 0, len(variants))
	for _, v := range variants {
		e.FlushAndReset()
		alg := MakeAlgorithm(v.ID, e.Disk)
		res := sched.Run(alg, stream, poolSize, v.Opts)
		cell := ThroughputCell{Label: v.Label, QPS: res.QPS, P95MS: res.Latency.Percentile(95)}
		if res.Errors > 0 {
			cell.NA = true
		}
		out = append(out, cell)
	}
	return out
}

// RunThroughputByLength reproduces Figure 4: throughput for each fixed
// query length, with intra-query parallelism equal to the term count.
func (e *Env) RunThroughputByLength(variants []Variant, lengths []int, poolSize, nQueries int) []SweepPoint {
	out := make([]SweepPoint, 0, len(lengths))
	for _, l := range lengths {
		qs := e.pick(l, nQueries)
		point := SweepPoint{X: l}
		for _, v := range variants {
			e.FlushAndReset()
			alg := MakeAlgorithm(v.ID, e.Disk)
			res := sched.Run(alg, qs, poolSize, v.Opts)
			cell := LatencyCell{Label: v.Label, Mean: res.QPS, P95: res.Latency.Percentile(95)}
			if res.Errors > 0 {
				cell.NA = true
			}
			point.Cells = append(point.Cells, cell)
		}
		out = append(out, point)
	}
	return out
}

// pick returns up to n queries of the given length, cycling the pool
// if n exceeds it.
func (e *Env) pick(length, n int) []model.Query {
	pool := e.Sets.Length(length)
	out := make([]model.Query, n)
	for i := range out {
		out[i] = pool[i%len(pool)]
	}
	return out
}
