// The faults benchmark: the availability grid behind results/
// BENCH_faults.json. Each cell serves the exact query log through a
// replicated scatter/gather group under a seeded fault schedule
// (transient errors, injected latency, stuck reads, and — with more
// than one replica — a permanently dark replica) and reports how much
// of the service survives: the fraction of queries served with no
// shard dropped, the fraction byte-identical to the unfaulted
// single-index reference, tail latency, and the retry/promotion work
// the serving layer spent getting there.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"sparta/internal/diskindex"
	"sparta/internal/faultinject"
	"sparta/internal/model"
	"sparta/internal/shardserve"
	"sparta/internal/stats"
	"sparta/internal/topk"
)

// FaultsBenchRow is one cell of the availability grid: one error rate
// at one replica count.
type FaultsBenchRow struct {
	ErrRate  float64 `json:"err_rate"`
	Replicas int     `json:"replicas"`
	Queries  int     `json:"queries"`
	// ServedFraction is the fraction of queries no shard dropped;
	// IdenticalFraction the fraction whose merged top-k is
	// byte-identical to the unfaulted single-index reference (ties at
	// the cutoff interchangeable, as everywhere in this repository).
	ServedFraction    float64 `json:"served_fraction"`
	IdenticalFraction float64 `json:"identical_fraction"`
	NsPerOpMean       float64 `json:"ns_per_op_mean"`
	NsPerOpP99        float64 `json:"ns_per_op_p99"`
	// ShardsDroppedPerOp / RetriesPerOp / HedgesPerOp are the mean
	// per-query drop count and the recovery work spent avoiding drops.
	ShardsDroppedPerOp float64 `json:"shards_dropped_per_op"`
	RetriesPerOp       float64 `json:"retries_per_op"`
	HedgesPerOp        float64 `json:"hedges_per_op"`
	// Promotions counts primary failovers across the run's shards;
	// InjectedErrors the attempts the fault schedule actually failed.
	Promotions     int64  `json:"promotions"`
	InjectedErrors uint64 `json:"injected_errors"`
}

// FaultsBenchReport is the machine-readable chaos-serving artifact
// (BENCH_faults.json): the error-rate × replica-count availability
// grid, exact Sparta queries, one permanently dark replica on shard 0
// whenever the row has a replica to spare.
type FaultsBenchReport struct {
	Corpus   string `json:"corpus"`
	Docs     int    `json:"docs"`
	Terms    int    `json:"terms"`
	K        int    `json:"k"`
	Threads  int    `json:"threads"`
	QueryLen int    `json:"query_len"`
	P        int    `json:"p"`
	Seed     uint64 `json:"seed"`
	// DarkReplica: rows with replicas > 1 run shard 0's replica 0
	// permanently dark, so those cells also measure failover.
	DarkReplica bool             `json:"dark_replica"`
	Rows        []FaultsBenchRow `json:"rows"`
}

// RunFaultsBenchReport serves nQueries exact 12-term queries through a
// p-shard group at every (error rate × replica count) combination,
// under a deterministic fault schedule rooted at seed. Every query's
// simulated I/O must settle to zero; a nonzero balance fails the run —
// the settlement invariant is part of what this benchmark certifies.
func (e *Env) RunFaultsBenchReport(nQueries, threads, p int, errRates []float64, replicaCounts []int, seed uint64) (FaultsBenchReport, error) {
	qs := e.pick(queriesMaxLen, nQueries)
	rep := FaultsBenchReport{
		Corpus:      e.Spec.Name,
		Docs:        e.Mem.NumDocs(),
		Terms:       e.Mem.NumTerms(),
		K:           e.Opts.K,
		Threads:     threads,
		QueryLen:    queriesMaxLen,
		P:           p,
		Seed:        seed,
		DarkReplica: true,
	}
	for _, r := range replicaCounts {
		for _, rate := range errRates {
			row, err := e.runFaultsCell(qs, threads, p, r, rate, seed)
			if err != nil {
				return rep, err
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

func (e *Env) runFaultsCell(qs []model.Query, threads, p, replicas int, errRate float64, seed uint64) (FaultsBenchRow, error) {
	row := FaultsBenchRow{ErrRate: errRate, Replicas: replicas, Queries: len(qs)}
	planFor := func(shard, replica int) faultinject.Plan {
		pl := faultinject.Plan{
			Seed:        seed,
			ErrRate:     errRate,
			LatencyRate: 0.10, Latency: 200 * time.Microsecond,
			StuckRate: 0.01,
		}
		if replicas > 1 && shard == 0 && replica == 0 {
			pl.Dark = true
		}
		return pl
	}
	cfg := shardserve.Config{
		TripAfter: 3, ProbeEvery: 4,
		RetryMax: 2 * replicas, RetryBackoff: 20 * time.Microsecond,
		Hedge: shardserve.HedgeConfig{Enabled: true},
	}

	shards := make([]shardserve.Shard, p)
	var injs []*faultinject.Injector
	for s, part := range e.Mem.Partition(p) {
		built, err := diskindex.FromIndex(part, e.Opts.Shards, e.IO)
		if err != nil {
			return row, fmt.Errorf("bench: building faults shard %d: %w", s, err)
		}
		reps := make([]shardserve.Replica, replicas)
		for ri := range reps {
			di := built
			if ri > 0 {
				di = built.Reopen(e.IO)
			}
			inj := faultinject.New(planFor(s, ri), s, ri)
			inj.BindStore(di.Store())
			reps[ri] = shardserve.Replica{
				View:  di,
				Alg:   inj.Wrap(MakeAlgorithm(AlgoSparta, di)),
				Store: di.Store(),
			}
			injs = append(injs, inj)
		}
		shards[s] = shardserve.Shard{Replicas: reps}
	}
	g, err := shardserve.New(cfg, shards...)
	if err != nil {
		return row, err
	}

	var lat, dropped, retries, hedges stats.Sample
	served, identical := 0, 0
	for _, q := range qs {
		opts := e.Opts
		res, st, err := g.SearchShards(context.Background(), q,
			topk.Options{K: opts.K, Exact: true, Threads: threads})
		if err != nil {
			return row, err
		}
		if d := g.Unsettled(); d != 0 {
			return row, fmt.Errorf("bench: %v of simulated I/O left unsettled after a faulted query", d)
		}
		lat.AddDuration(st.Duration)
		dropped.Add(float64(st.ShardsDropped))
		retries.Add(float64(st.Retries))
		hedges.Add(float64(st.Hedges))
		if st.ShardsDropped == 0 {
			served++
		}
		if identicalTopK(e.Exact(q), res) {
			identical++
		}
	}
	n := float64(len(qs))
	row.ServedFraction = float64(served) / n
	row.IdenticalFraction = float64(identical) / n
	row.NsPerOpMean = lat.Mean() * 1e6 // Sample stores ms
	row.NsPerOpP99 = lat.Percentile(99) * 1e6
	row.ShardsDroppedPerOp = dropped.Mean()
	row.RetriesPerOp = retries.Mean()
	row.HedgesPerOp = hedges.Mean()
	for i := 0; i < g.NumShards(); i++ {
		row.Promotions += g.Counters(i).Promotions
	}
	for _, in := range injs {
		row.InjectedErrors += in.InjectedErrors()
	}
	return row, nil
}

// identicalTopK reports whether got matches the reference want rank
// for rank — scores exactly, documents exactly above the cutoff score,
// any tied document admissible at the cutoff.
func identicalTopK(want, got model.TopK) bool {
	if len(got) != len(want) {
		return false
	}
	if len(want) == 0 {
		return true
	}
	cut := want[len(want)-1].Score
	for i := range want {
		if got[i].Score != want[i].Score {
			return false
		}
		if want[i].Score > cut && got[i].Doc != want[i].Doc {
			return false
		}
	}
	return true
}

// WriteJSON writes the report to path, indented for diffing.
func (r FaultsBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Summary renders a human-readable availability grid.
func (r FaultsBenchReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults grid (%s: %d docs, %d terms, k=%d, %d-term exact queries, %d threads, P=%d, seed %d, dark replica on shard 0 when R>1)\n",
		r.Corpus, r.Docs, r.Terms, r.K, r.QueryLen, r.Threads, r.P, r.Seed)
	fmt.Fprintf(&b, "%-9s %3s %8s %10s %12s %12s %11s %10s %6s\n",
		"err-rate", "R", "served", "identical", "p99 ms", "dropped/op", "retries/op", "hedges/op", "promo")
	for _, x := range r.Rows {
		fmt.Fprintf(&b, "%-9.2f %3d %7.1f%% %9.1f%% %12.2f %12.2f %11.2f %10.2f %6d\n",
			x.ErrRate, x.Replicas, 100*x.ServedFraction, 100*x.IdenticalFraction,
			x.NsPerOpP99/1e6, x.ShardsDroppedPerOp, x.RetriesPerOp, x.HedgesPerOp, x.Promotions)
	}
	return b.String()
}
