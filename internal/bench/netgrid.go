// The netgrid benchmark: what the wire costs. Each pair of cells
// serves the same exact query log through the same shard set twice —
// once with the shards in-process, once with every shard behind a
// loopback shardserver reached over the shardrpc transport — and
// reports throughput, tail latency, exactness, and the added wire
// latency (remote minus in-process at the same shard count). The
// artifact behind results/BENCH_net.json.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/shardrpc"
	"sparta/internal/shardserve"
	"sparta/internal/stats"
	"sparta/internal/topk"
)

// NetBenchRow is one cell: one transport at one shard count, served by
// a fixed closed loop of concurrent clients.
type NetBenchRow struct {
	// Transport is "inproc" (shards in the caller's process) or
	// "remote" (each shard a loopback shardserver process image).
	Transport string  `json:"transport"`
	P         int     `json:"p"`
	Clients   int     `json:"clients"`
	Queries   int     `json:"queries"`
	QPS       float64 `json:"qps"`
	// Latency is end-to-end per query as the client observes it (wire
	// round trips and remote exact resolution included).
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	NsPerOpP95  float64 `json:"ns_per_op_p95"`
	NsPerOpP99  float64 `json:"ns_per_op_p99"`
	// IdenticalFraction must be 1.0 on both transports: the wire is not
	// allowed to change answers.
	IdenticalFraction float64 `json:"identical_fraction"`
	// AddedWireNsMean / AddedWireNsP95 are remote minus in-process at
	// the same (P, clients); zero on inproc rows.
	AddedWireNsMean float64 `json:"added_wire_ns_mean,omitempty"`
	AddedWireNsP95  float64 `json:"added_wire_ns_p95,omitempty"`
}

// NetBenchReport is the machine-readable remote-serving artifact
// (BENCH_net.json): in-process vs remote scatter/gather over the same
// shard sets, exact Sparta queries.
type NetBenchReport struct {
	Corpus   string        `json:"corpus"`
	Docs     int           `json:"docs"`
	Terms    int           `json:"terms"`
	K        int           `json:"k"`
	Threads  int           `json:"threads"`
	QueryLen int           `json:"query_len"`
	Clients  int           `json:"clients"`
	Seed     uint64        `json:"seed"`
	Rows     []NetBenchRow `json:"rows"`
}

// RunNetBenchReport serves nQueries exact 12-term queries per cell: for
// every shard count in ps, once in-process and once through loopback
// shardserver instances (one process image per shard, dialed over TCP).
// Both sides of a pair read identical on-disk shard sets through the
// same simulated-I/O model, so the row difference is the transport.
// Settlement is enforced on every server after its run.
func (e *Env) RunNetBenchReport(nQueries, threads, clients int, ps []int, seed uint64) (NetBenchReport, error) {
	qs := e.pick(queriesMaxLen, nQueries)
	rep := NetBenchReport{
		Corpus:   e.Spec.Name,
		Docs:     e.Mem.NumDocs(),
		Terms:    e.Mem.NumTerms(),
		K:        e.Opts.K,
		Threads:  threads,
		QueryLen: queriesMaxLen,
		Clients:  clients,
		Seed:     seed,
	}
	root, err := os.MkdirTemp("", "sparta-netgrid-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(root)
	factory := func(v postings.View) topk.Algorithm { return MakeAlgorithm(AlgoSparta, v) }

	for _, p := range ps {
		dir := filepath.Join(root, fmt.Sprintf("p%d", p))
		if err := shardserve.WriteDir(e.Mem, p, e.Opts.Shards, dir); err != nil {
			return rep, fmt.Errorf("bench: writing netgrid shard set P=%d: %w", p, err)
		}

		inG, err := shardserve.OpenDir(dir, factory, shardserve.Config{IO: &e.IO})
		if err != nil {
			return rep, fmt.Errorf("bench: opening in-process group P=%d: %w", p, err)
		}
		inRow, err := e.runNetCell(qs, threads, clients, inG, "inproc", p)
		if err != nil {
			return rep, err
		}
		if d := inG.Unsettled(); d != 0 {
			return rep, fmt.Errorf("bench: in-process P=%d left %v unsettled", p, d)
		}

		// The remote side: one single-shard group + server per shard —
		// cmd/shardserver's arrangement on loopback — and a dialed group
		// in front, so the remote cell pays every round trip a real
		// deployment would.
		servers := make([]*shardrpc.Server, p)
		addrs := make([][]string, p)
		for s := 0; s < p; s++ {
			sg, err := shardserve.OpenShard(dir, s, factory, shardserve.Config{IO: &e.IO})
			if err != nil {
				return rep, fmt.Errorf("bench: opening remote shard %d of P=%d: %w", s, p, err)
			}
			srv, err := shardrpc.Listen("127.0.0.1:0", sg, shardrpc.ServerConfig{})
			if err != nil {
				return rep, err
			}
			servers[s] = srv
			addrs[s] = []string{srv.Addr().String()}
		}
		remG, rcls, err := shardrpc.DialGroup(addrs, shardserve.Config{}, shardrpc.Config{Conns: 2})
		if err != nil {
			return rep, err
		}
		remRow, err := e.runNetCell(qs, threads, clients, remG, "remote", p)
		shardrpc.CloseClients(rcls)
		for _, srv := range servers {
			if err == nil {
				if v := srv.UnsettledViolations(); v != 0 {
					err = fmt.Errorf("bench: remote P=%d: %d unsettled violations server-side", p, v)
				} else if d := srv.Group().Unsettled(); d != 0 {
					err = fmt.Errorf("bench: remote P=%d left %v unsettled server-side", p, d)
				}
			}
			srv.Close()
		}
		if err != nil {
			return rep, err
		}
		remRow.AddedWireNsMean = remRow.NsPerOpMean - inRow.NsPerOpMean
		remRow.AddedWireNsP95 = remRow.NsPerOpP95 - inRow.NsPerOpP95
		rep.Rows = append(rep.Rows, inRow, remRow)
	}
	return rep, nil
}

// runNetCell drives one closed loop: clients goroutines each pull the
// next query, search, and verify against the ground truth. Latency is
// wall clock per query at the caller — the only vantage the transport
// difference is visible from.
func (e *Env) runNetCell(qs []model.Query, threads, clients int, g *shardserve.Group, transport string, p int) (NetBenchRow, error) {
	row := NetBenchRow{Transport: transport, P: p, Clients: clients, Queries: len(qs)}
	var (
		mu        sync.Mutex
		lat       stats.Sample
		identical int
		next      atomic.Int64
		firstErr  error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				q := qs[i]
				t0 := time.Now()
				res, st, err := g.SearchShards(context.Background(), q,
					topk.Options{K: e.Opts.K, Exact: true, Threads: threads})
				d := time.Since(t0)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil && st.ShardsDropped == 0 && identicalTopK(e.Exact(q), res) {
					identical++
				}
				lat.AddDuration(d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return row, fmt.Errorf("bench: netgrid %s P=%d: %w", transport, p, firstErr)
	}
	row.QPS = float64(len(qs)) / wall.Seconds()
	row.NsPerOpMean = lat.Mean() * 1e6 // Sample stores ms
	row.NsPerOpP95 = lat.Percentile(95) * 1e6
	row.NsPerOpP99 = lat.Percentile(99) * 1e6
	row.IdenticalFraction = float64(identical) / float64(len(qs))
	return row, nil
}

// WriteJSON writes the report to path, indented for diffing.
func (r NetBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Summary renders the in-process vs remote grid.
func (r NetBenchReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netgrid (%s: %d docs, %d terms, k=%d, %d-term exact queries, %d threads, %d clients, seed %d)\n",
		r.Corpus, r.Docs, r.Terms, r.K, r.QueryLen, r.Threads, r.Clients, r.Seed)
	fmt.Fprintf(&b, "%-9s %3s %9s %10s %10s %10s %10s %12s\n",
		"transport", "P", "qps", "mean ms", "p95 ms", "p99 ms", "identical", "wire Δ ms")
	for _, x := range r.Rows {
		wire := ""
		if x.Transport == "remote" {
			wire = fmt.Sprintf("%+.3f", x.AddedWireNsMean/1e6)
		}
		fmt.Fprintf(&b, "%-9s %3d %9.1f %10.3f %10.3f %10.3f %9.1f%% %12s\n",
			x.Transport, x.P, x.QPS, x.NsPerOpMean/1e6, x.NsPerOpP95/1e6, x.NsPerOpP99/1e6,
			100*x.IdenticalFraction, wire)
	}
	return b.String()
}
