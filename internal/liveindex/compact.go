// Background compaction: merge runs of small adjacent frozen segments
// into one larger segment while queries keep serving.
//
// Compaction never blocks the read or ingest path beyond two short
// critical sections (picking the run, splicing the result in). The
// merge itself reads the source segments through their own bound
// charged views — compaction pays simulated I/O like any reader and
// settles it on every exit path, including cancellation — and builds
// the merged raw postings outside the lock. Source data is immutable,
// the ingester only ever appends to the end of the frozen list, and
// compactMu serializes all compactions (background and explicit) so
// the in-flight merge is the only remover — the picked run stays
// valid (and adjacent) until the splice.
//
// Old segment directories are removed only after the new epoch is
// published; queries pinned to earlier epochs read segment bytes that
// stay in memory, so the removal cannot race them.
package liveindex

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"sparta/internal/model"
	"sparta/internal/postings"
)

// compactor is the background goroutine: it waits for kicks from the
// ingest path and keeps merging until no run qualifies.
func (l *Live) compactor(ctx context.Context) {
	defer close(l.compactDone)
	if l.cfg.DisableCompaction {
		<-ctx.Done()
		return
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-l.compactKick:
		}
		for {
			merged, err := l.compactOnce(ctx)
			if err != nil || !merged {
				break
			}
		}
	}
}

// pickRunLocked chooses the first run of >= 2 adjacent frozen segments
// whose merged size fits the budget, greedily extended while it still
// fits. Returns the half-open index range, or ok=false.
func (l *Live) pickRunLocked() (lo, hi int, ok bool) {
	budget := l.cfg.CompactMaxDocs
	for i := 0; i+1 < len(l.frozen); i++ {
		docs := l.frozen[i].docs()
		j := i
		for j+1 < len(l.frozen) && docs+l.frozen[j+1].docs() <= budget {
			docs += l.frozen[j+1].docs()
			j++
		}
		if j > i {
			return i, j + 1, true
		}
	}
	return 0, 0, false
}

// compactOnce merges one qualifying run. It reports whether a merge
// happened. A cancelled context stops the merge mid-read with all
// simulated I/O settled and the partial output removed. compactMu
// makes this the only compaction in flight — the background compactor
// and explicit Compact() calls serialize rather than merging
// overlapping runs.
func (l *Live) compactOnce(ctx context.Context) (bool, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	l.mu.Lock()
	runLo, runHi, ok := l.pickRunLocked()
	if !ok {
		l.mu.Unlock()
		return false, nil
	}
	run := make([]*frozenSeg, runHi-runLo)
	copy(run, l.frozen[runLo:runHi])
	gen := l.nextGen
	l.nextGen++
	nTerms := len(l.names)
	l.mu.Unlock()

	l.compactInFlight.Add(1)
	defer l.compactInFlight.Add(-1)

	seg, err := l.mergeRun(ctx, run, nTerms)
	if err != nil {
		return false, err
	}
	if seg == nil { // cancelled
		return false, nil
	}

	segDir := filepath.Join(l.dir, segDirName(gen))
	if err := writeFrozen(segDir, seg); err != nil {
		return false, err
	}
	fz, err := openFrozen(segDir, gen, seg.lo, seg.hi, *l.cfg.IO)
	if err != nil {
		os.RemoveAll(segDir)
		return false, err
	}
	if fz.files, fz.root, err = digestFrozen(segDir); err != nil {
		os.RemoveAll(segDir)
		return false, err
	}

	l.mu.Lock()
	// The run is still at [runLo, runHi): the ingester only appends
	// past the end and, under compactMu, this merge is the only
	// remover. The identity check guards the invariant anyway.
	for i, fz := range l.frozen[runLo:runHi] {
		if fz != run[i] {
			l.mu.Unlock()
			os.RemoveAll(segDir)
			return false, fmt.Errorf("liveindex: frozen list changed under compaction")
		}
	}
	l.trackStore(fz.inner.Store())
	spliced := make([]*frozenSeg, 0, len(l.frozen)-len(run)+1)
	spliced = append(spliced, l.frozen[:runLo]...)
	spliced = append(spliced, fz)
	spliced = append(spliced, l.frozen[runHi:]...)
	l.frozen = spliced
	l.sumFrozenDFLocked()
	err = l.writeManifestLocked()
	l.publishLocked()
	l.mu.Unlock()
	if err != nil {
		return false, err
	}
	l.compactions.Add(1)

	// Old directories go only after the new epoch is out; pinned
	// queries read RAM-resident segment state, not the files.
	for _, old := range run {
		os.RemoveAll(old.dir)
	}
	return true, nil
}

// mergeRun reads the run's raw postings through bound charged views
// and builds the merged segment snapshot. Returns (nil, nil) on
// cancellation. All charged I/O is settled before returning, on every
// path.
func (l *Live) mergeRun(ctx context.Context, run []*frozenSeg, nTerms int) (_ *memSegment, err error) {
	bound := make([]postings.BoundView, len(run))
	for i, fz := range run {
		bound[i] = fz.inner.BindExec(ctx, nil, nil, nil)
	}
	defer func() {
		for _, b := range bound {
			b.SettleAll()
		}
	}()

	seg := &memSegment{
		lo:    run[0].lo,
		hi:    run[len(run)-1].hi,
		terms: make([]*memTerm, nTerms),
	}
	for _, fz := range run {
		for _, n := range fz.docLens {
			seg.docLens = append(seg.docLens, int(n))
		}
	}

	for t := 0; t < nTerms; t++ {
		if ctx.Err() != nil {
			return nil, nil
		}
		var list []tfPost
		for i, fz := range run {
			if fz.localDF(model.TermID(t)) == 0 {
				continue
			}
			cur := bound[i].DocCursor(model.TermID(t))
			for cur.Next() {
				d := cur.Doc()
				tf := uint32(cur.Score()) // raw payload: term frequency
				list = append(list, tfPost{doc: d, tf: tf, w: fz.weight(tf, d)})
			}
		}
		if len(list) == 0 {
			continue
		}
		seg.terms[t] = newMemTerm(nil, list)
		seg.bytes += int64(24 * len(list))
	}
	seg.bytes += int64(8 * len(seg.docLens))
	return seg, nil
}
