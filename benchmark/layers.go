package main

import (
	"runtime"
	"time"

	"sparta/internal/shardserve"
)

// counters is a snapshot of every cumulative counter (and a few
// gauges, named *_now) the stack's layers export. Layer metrics are
// differences of two snapshots taken either side of a round.
type counters map[string]float64

func (s *stack) snapshot() counters {
	c := counters{}
	if s.registry != nil {
		// The Searcher's own export: s.queries, s.shed, s.batch.batches,
		// s.batch.fused_members, ...
		for k, v := range s.registry.Snapshot() {
			switch n := v.(type) {
			case int64:
				c[k] = float64(n)
			case float64:
				c[k] = n
			}
		}
	}
	for _, st := range s.stores {
		io := st.Snapshot()
		c["io.blocks_read"] += float64(io.BlocksRead)
		c["io.cache_hits"] += float64(io.CacheHits)
		c["io.rand_reads"] += float64(io.RandReads)
		c["io.view_calls"] += float64(io.ViewCalls)
		if !st.Config().NoSleep {
			// A RAM-resident store tallies charges it never sleeps out;
			// only latency that was really paid counts as simulated I/O.
			c["io.sim_ns"] += float64(io.SimulatedIO)
		}
	}
	for _, pc := range s.caches {
		ps := pc.Snapshot()
		c["plc.hits"] += float64(ps.Hits)
		c["plc.misses"] += float64(ps.Misses)
		c["plc.dup_fills"] += float64(ps.DupFillsSuppressed)
		c["plc.rejects"] += float64(ps.AdmissionRejects)
		c["plc.bytes_now"] += float64(ps.Bytes)
	}
	if s.group != nil {
		addShardCounters(c, "grp.", s.group.AllCounters())
	}
	for _, cl := range s.clients {
		cc := cl.Counters()
		c["rpc.dials"] += float64(cc.Dials)
		c["rpc.conn_deaths"] += float64(cc.ConnDeaths)
	}
	for _, srv := range s.servers {
		ss := srv.Stats()
		c["rpc.server_errors"] += float64(ss.Errors)
		c["rpc.violations"] += float64(ss.UnsettledViolations)
	}
	if s.live != nil {
		c["live.flushes"] = float64(s.live.Flushes())
		c["live.compactions"] = float64(s.live.Compactions())
		c["live.segments_now"] = float64(len(s.live.SegmentStats()))
		c["live.memtable_bytes_now"] = float64(s.live.MemtableBytes())
		c["live.memtable_docs_now"] = float64(s.live.MemtableDocs())
	}
	return c
}

func addShardCounters(c counters, prefix string, all []shardserve.ShardCounters) {
	for _, sc := range all {
		c[prefix+"hedges"] += float64(sc.Hedges)
		c[prefix+"retries"] += float64(sc.Retries)
		c[prefix+"deadline_misses"] += float64(sc.DeadlineMisses)
	}
}

// layerValues computes the per-layer metrics one traced round can
// supply. Metrics that need measurements of their own (micro-timings,
// replays, the admission probe) are filled in by the caller; metrics of
// layers the workload bypasses stay 0.
func layerValues(g *loadgen, rd *round, mem0, mem1 *runtime.MemStats) map[string]float64 {
	v := map[string]float64{}
	st := g.st
	n := float64(len(rd.recs))
	d := func(key string) float64 { return rd.after[key] - rd.before[key] }

	var lat, exec, preExec, overhead []float64
	var execSum, postings, heapIns, cleanings, segments, termRefs, dropped float64
	var peaks []float64
	stops := map[string]float64{}
	var shardExec, gap, gather, wire, resolveRPC []float64
	var resolves float64
	for _, r := range rd.recs {
		lat = append(lat, ms(r.lat()))
		postings += float64(r.st.Postings)
		heapIns += float64(r.st.HeapInserts)
		cleanings += float64(r.st.Cleanings)
		peaks = append(peaks, float64(r.st.CandidatesPeak))
		stops[r.st.StopReason]++
		dropped += float64(r.st.ShardsDropped)
		termRefs += float64(len(g.pool[r.idx]))
		t := r.tr
		if t == nil {
			continue
		}
		segments += float64(t.Segments())
		if !t.execStart.IsZero() && !t.execEnd.IsZero() {
			e := t.execEnd.Sub(t.execStart)
			exec = append(exec, ms(e))
			execSum += float64(e)
			preExec = append(preExec, ms(t.execStart.Sub(r.start)))
			overhead = append(overhead, us(r.end.Sub(r.start)-e))
		}
		if len(t.shards) > 0 {
			slowest, fastest := time.Duration(0), time.Duration(1<<62)
			for _, c := range t.shards {
				wall := c.end.Sub(c.start)
				slowest, fastest = max(slowest, wall), min(fastest, wall)
				shardExec = append(shardExec, ms(c.reported))
				execSum += float64(c.reported)
				wire = append(wire, ms(wall-c.reported))
			}
			gap = append(gap, ms(slowest-fastest))
			gather = append(gather, ms(r.end.Sub(r.start)-slowest))
		}
		for _, rs := range t.resolves {
			resolveRPC = append(resolveRPC, ms(rs[1].Sub(rs[0])))
		}
		resolves += float64(len(t.resolves))
	}
	lat = sorted(lat)
	over50 := 0.0
	for _, l := range lat {
		if l > 50 {
			over50++
		}
	}

	// searcher: the tail every workload has, the Searcher's own counters
	// where there is one.
	v["searcher.p99_ms"] = quantile(lat, 0.99)
	v["searcher.over_50ms_share"] = ratio(over50, n)
	if st.entry == "searcher" {
		v["searcher.overhead_us_p50"] = median(overhead)
		v["searcher.shed"] = d("s.shed")
		v["searcher.rejected"] = d("s.rejected")
		v["searcher.deadline"] = d("s.deadline")
		v["batchexec.pre_exec_wait_ms_p50"] = median(preExec)
	}

	if batched := d("s.batch.batched_queries"); batched > 0 {
		v["batchexec.mean_batch"] = ratio(batched, d("s.batch.batches"))
		v["batchexec.coalesced_share"] = ratio(d("s.batch.coalesced"), batched)
		v["batchexec.fused_batches"] = d("s.batch.fused_batches")
		v["batchexec.warmed_blocks"] = d("s.batch.warmed_blocks")

		fused := d("s.batch.fused_members")
		v["fusedexec.fused_member_share"] = ratio(fused, n)
		v["fusedexec.fallback_member_share"] = ratio(d("s.batch.fused_fallback_members"), n)
		// Traversal passes per query-term reference: 1 when every query
		// walks each of its terms itself, below 1 when fused batches walk
		// a shared term once. Queries outside the fused path are counted
		// at the round's mean query length.
		unfusedRefs := (n - fused) * ratio(termRefs, n)
		v["fusedexec.traversals_per_term"] = ratio(d("s.batch.fused_traversals")+unfusedRefs, termRefs)
		v["fusedexec.blocks_saved_per_query"] = ratio(d("s.batch.fused_blocks_saved"), n)
		v["fusedexec.detach_early_per_query"] = ratio(d("s.batch.detach_early"), n)
		v["fusedexec.block_skips_per_query"] = ratio(d("s.batch.fused_block_skips"), n)
		v["fusedexec.ub_stops_per_query"] = ratio(d("s.batch.fused_ub_stops"), n)
		v["fusedexec.resolve_ra_per_query"] = ratio(d("s.batch.fused_resolve_ra"), n)
	}

	if st.group != nil {
		v["shardserve.shard_exec_ms_p50"] = median(shardExec)
		v["shardserve.straggler_gap_ms_p50"] = median(gap)
		v["shardserve.gather_overhead_ms_p50"] = median(gather)
		v["shardserve.hedges_per_query"] = ratio(d("grp.hedges"), n)
		v["shardserve.retries"] = d("grp.retries")
		v["shardserve.shards_dropped"] = dropped
		v["shardserve.deadline_misses"] = d("grp.deadline_misses")

		wire = sorted(wire)
		v["shardrpc.wire_added_ms_p50"] = quantile(wire, 0.5)
		v["shardrpc.wire_added_ms_p95"] = quantile(wire, 0.95)
		v["shardrpc.resolve_rpc_ms_p50"] = median(resolveRPC)
		v["shardrpc.resolves_per_query"] = ratio(resolves, n)
		v["shardrpc.dials"] = d("rpc.dials")
		v["shardrpc.conn_deaths"] = d("rpc.conn_deaths")
		v["shardrpc.server_errors"] = d("rpc.server_errors")
		v["shardrpc.unsettled_violations"] = d("rpc.violations")
		exec = shardExec
	}

	// core: execution as the algorithm reports it. In the sharded
	// workload the algorithm runs behind the wire, so execution time is
	// the servers' reported durations.
	exec = sorted(exec)
	v["core.exec_ms_p50"] = quantile(exec, 0.5)
	v["core.exec_ms_p95"] = quantile(exec, 0.95)
	v["core.postings_per_query"] = ratio(postings, n)
	v["core.ns_per_posting"] = ratio(execSum, postings)
	v["core.heap_inserts_per_query"] = ratio(heapIns, n)
	v["core.cleanings_per_query"] = ratio(cleanings, n)
	v["core.segments_per_query"] = ratio(segments, n)
	v["core.candidates_peak_p95"] = quantile(sorted(peaks), 0.95)
	for _, reason := range []string{"safe", "exhausted", "delta", "ubstop"} {
		v["core.stop_"+reason+"_share"] = ratio(stops[reason], n)
	}

	if len(st.caches) > 0 {
		hits, misses := d("plc.hits"), d("plc.misses")
		v["plcache.hit_rate"] = ratio(hits, hits+misses)
		v["plcache.fills_per_query"] = ratio(misses, n)
		v["plcache.dup_fills_suppressed"] = d("plc.dup_fills")
		v["plcache.admission_rejects_per_query"] = ratio(d("plc.rejects"), n)
		v["plcache.bytes_used_share"] = ratio(rd.after["plc.bytes_now"], float64(st.cacheBudget))
	}

	if len(st.stores) > 0 {
		reads := d("io.blocks_read")
		v["iomodel.blocks_read_per_query"] = ratio(reads, n)
		v["iomodel.page_cache_hit_rate"] = ratio(d("io.cache_hits"), d("io.cache_hits")+reads)
		v["iomodel.sim_io_ms_per_query"] = ratio(d("io.sim_ns")/1e6, n)
		v["iomodel.sim_io_share"] = ratio(d("io.sim_ns"), execSum)
		v["iomodel.view_calls_per_query"] = ratio(d("io.view_calls"), n)
		v["iomodel.rand_read_share"] = ratio(d("io.rand_reads"), reads)
	} else if st.live != nil {
		// A live index owns its segment stores; what they charged is
		// visible only through the queries' observers.
		var fetches, wait float64
		for _, r := range rd.recs {
			if r.tr != nil {
				fetches += float64(r.tr.IOFetches())
				wait += float64(r.tr.IOWait())
			}
		}
		v["iomodel.blocks_read_per_query"] = ratio(fetches, n)
		v["iomodel.sim_io_ms_per_query"] = ratio(wait/1e6, n)
		v["iomodel.sim_io_share"] = ratio(wait, execSum)
	}
	v["iomodel.unsettled_ns"] = float64(rd.unsettled)

	if st.live != nil {
		app := sorted(msOf(rd.appends))
		v["liveindex.append_p50_ms"] = quantile(app, 0.5)
		v["liveindex.append_p95_ms"] = quantile(app, 0.95)
		v["liveindex.append_max_ms"] = quantile(app, 1)
		v["liveindex.ingest_docs_per_s"] = ratio(float64(len(rd.appends)-rd.appendFails), rd.elapsed.Seconds())
		v["liveindex.flushes"] = d("live.flushes")
		v["liveindex.compactions"] = d("live.compactions")
		v["liveindex.segments_end"] = rd.after["live.segments_now"]
		v["liveindex.wal_bytes_per_doc"] = ratio(float64(rd.walBytes), float64(rd.walDocs))
		v["liveindex.memtable_bytes_per_doc"] = ratio(rd.after["live.memtable_bytes_now"], rd.after["live.memtable_docs_now"])
	}

	v["process.alloc_kb_per_query"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024, n)
	v["process.gc_cycles_per_kq"] = ratio(float64(mem1.NumGC-mem0.NumGC)*1000, n)
	v["process.gc_pause_ms_per_kq"] = ratio(float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6*1000, n)
	v["process.rss_mb"] = maxRSSMB()

	if len(rd.lag) > 0 {
		lag := sorted(msOf(rd.lag))
		v["loadgen.lag_ms_p95"] = quantile(lag, 0.95)
		v["loadgen.lag_ms_max"] = quantile(lag, 1)
	}
	return v
}
