package sparta

import (
	"sparta/internal/liveindex"
)

// Live-ingest types, re-exported: the segment-based mutable index
// (internal/liveindex). A LiveIndex is an Algorithm: it runs
// LiveConfig.Factory's algorithm (Sparta by default) on every segment
// and merges the parts, so a Searcher wraps it directly, with
// byte-identical exact results at every lifecycle point (memtable,
// post-flush, mid-compaction).
type (
	// LiveIndex is a WAL-backed mutable index: appends become
	// searchable and crash-durable atomically, the memtable flushes
	// into immutable on-disk segments in the block-decoded format, and
	// a background compactor merges small segments while queries serve
	// on epoch snapshots.
	LiveIndex = liveindex.Live
	// LiveConfig parameterizes OpenLive (flush threshold, compaction
	// policy, I/O model, per-segment algorithm factory).
	LiveConfig = liveindex.Config
	// LiveSegmentStats describes one segment of a live index's current
	// epoch.
	LiveSegmentStats = liveindex.SegmentStats
)

// OpenLive opens (or creates) a live index rooted at dir, replaying
// its write-ahead log so previously acknowledged appends are all
// present.
func OpenLive(dir string, cfg LiveConfig) (*LiveIndex, error) {
	return liveindex.Open(dir, cfg)
}
