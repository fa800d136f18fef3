// Segment lifecycle metrics, registered into an internal/metrics
// registry so serving processes surface them alongside search and
// cache counters.
package liveindex

import (
	"time"

	"sparta/internal/metrics"
)

// RegisterMetrics registers the index's lifecycle gauges and counters
// under prefix (e.g. "live"): segment count, memtable size, WAL size,
// flush and compaction activity, and the settlement invariant.
func (l *Live) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.RegisterFunc(prefix+".segments", func() any {
		return int64(len(l.epochNow().views))
	})
	r.RegisterFunc(prefix+".docs", func() any {
		return int64(l.epochNow().n)
	})
	r.RegisterFunc(prefix+".terms", func() any {
		return int64(len(l.epochNow().df))
	})
	r.RegisterFunc(prefix+".memtable_docs", func() any {
		return int64(l.MemtableDocs())
	})
	r.RegisterFunc(prefix+".memtable_bytes", func() any {
		return l.MemtableBytes()
	})
	r.RegisterFunc(prefix+".wal_bytes", func() any {
		return l.WALBytes()
	})
	r.RegisterFunc(prefix+".appended_docs", func() any {
		return l.appendedDocs.Load()
	})
	r.RegisterFunc(prefix+".flushes", func() any {
		return l.flushes.Load()
	})
	r.RegisterFunc(prefix+".compactions", func() any {
		return l.compactions.Load()
	})
	r.RegisterFunc(prefix+".compactions_inflight", func() any {
		return l.compactInFlight.Load()
	})
	r.RegisterFunc(prefix+".last_flush_age_s", func() any {
		at := l.lastFlushUnixNano.Load()
		if at == 0 {
			return int64(-1) // never flushed
		}
		return int64(time.Since(time.Unix(0, at)).Seconds())
	})
	r.RegisterFunc(prefix+".unsettled_ns", func() any {
		return int64(l.Unsettled())
	})
}
