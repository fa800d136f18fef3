// Epochs.
//
// An epoch is one immutable snapshot of the segment set together with
// the global corpus statistics (N, df) recomputed for it. Queries pin
// the epoch pointer once and run entirely against that snapshot;
// ingest, flush and compaction publish new epochs without disturbing
// in-flight readers. Segment memory stays reachable from pinned
// epochs, so replaced segments need no reference counting — directory
// deletion after compaction cannot pull bytes out from under a query.
package liveindex

// epoch is one published snapshot of the live index.
type epoch struct {
	n     int        // global corpus size
	df    []int32    // global document frequency per term
	views []*segView // the frozen segments, then the memtable, in document order
}
