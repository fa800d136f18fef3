// Analytics: the introduction's real-time analytics scenario.
//
// "A real-time analytics engine might keep daily lists of application
// access statistics — the number of users accessing every application
// on a given day. A query may then retrieve the popular applications
// over a ten-day period by aggregating over ten lists." (§1)
//
// Here the "documents" are applications, the "terms" are days, and a
// term score is the app's access count on that day. The example shows
// that the retrieval framework is index-agnostic: it implements
// postings.View directly over raw daily counters (no tf-idf, no text)
// and runs both Sparta and the Threshold Algorithm's NRA over it.
//
//	go run ./examples/analytics
package main

import (
	"fmt"
	"log"
	"sort"

	"sparta/internal/algos/ta"
	"sparta/internal/core"
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
	"sparta/internal/xrand"
)

// dailyStats implements postings.View over per-day app access counts.
type dailyStats struct {
	numApps int
	// byDay[d] is day d's posting list in app-id order; impact[d] is
	// the same list in decreasing access-count order.
	byDay  [][]model.Posting
	impact [][]model.Posting
}

func newDailyStats(apps, days int, seed uint64) *dailyStats {
	rng := xrand.New(seed)
	// App popularity is heavy-tailed; day-to-day counts fluctuate.
	base := make([]float64, apps)
	z := xrand.NewZipf(xrand.New(seed+1), 1.1, apps)
	for i := 0; i < apps; i++ {
		base[i] = z.Prob(i) * 1e7
	}
	s := &dailyStats{numApps: apps}
	for d := 0; d < days; d++ {
		day := make([]model.Posting, 0, apps)
		for a := 0; a < apps; a++ {
			noise := 0.5 + rng.Float64() // ±50% daily fluctuation
			count := model.Score(base[a] * noise)
			if count <= 0 {
				continue
			}
			day = append(day, model.Posting{Doc: model.DocID(a), Score: count})
		}
		imp := make([]model.Posting, len(day))
		copy(imp, day)
		sort.Slice(imp, func(i, j int) bool {
			if imp[i].Score != imp[j].Score {
				return imp[i].Score > imp[j].Score
			}
			return imp[i].Doc < imp[j].Doc
		})
		s.byDay = append(s.byDay, day)
		s.impact = append(s.impact, imp)
	}
	return s
}

func (s *dailyStats) NumDocs() int  { return s.numApps }
func (s *dailyStats) NumTerms() int { return len(s.byDay) }

func (s *dailyStats) DF(t model.TermID) int { return len(s.byDay[t]) }

func (s *dailyStats) MaxScore(t model.TermID) model.Score {
	if len(s.impact[t]) == 0 {
		return 0
	}
	return s.impact[t][0].Score
}

func (s *dailyStats) DocCursor(t model.TermID) postings.DocCursor {
	return postings.NewSliceDocCursor(s.byDay[t], nil, 0)
}

func (s *dailyStats) ScoreCursor(t model.TermID) postings.ScoreCursor {
	return postings.NewSliceScoreCursor(s.impact[t], 0)
}

func (s *dailyStats) ScoreCursorShard(t model.TermID, shard, nShards int) postings.ScoreCursor {
	lo, hi := postings.ShardRange(s.numApps, shard, nShards)
	var sub []model.Posting
	for _, p := range s.impact[t] {
		if p.Doc >= lo && p.Doc < hi {
			sub = append(sub, p)
		}
	}
	return postings.NewSliceScoreCursor(sub, 0)
}

func (s *dailyStats) Resident(model.TermID, model.DocID) bool { return true }

func (s *dailyStats) RandomAccess(t model.TermID, d model.DocID) (model.Score, bool) {
	list := s.byDay[t]
	i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= d })
	if i < len(list) && list[i].Doc == d {
		return list[i].Score, true
	}
	return 0, false
}

func main() {
	const apps, days, topN = 50_000, 10, 5
	stats := newDailyStats(apps, days, 99)

	// The TopN query: aggregate all ten daily lists.
	q := make(model.Query, days)
	for d := range q {
		q[d] = model.TermID(d)
	}

	exact := topk.BruteForce(stats, q, topN)

	fmt.Printf("top %d apps over a %d-day window (%d apps tracked)\n\n", topN, days, apps)
	for _, alg := range []topk.Algorithm{core.New(stats), ta.NewNRA(stats)} {
		res, st, err := alg.Search(q, topk.Options{K: topN, Threads: 4, Exact: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %v, %d of %d daily entries read (early stopping), stop: %s\n",
			alg.Name(), st.Duration, st.Postings, totalEntries(stats), st.StopReason)
		for rank, r := range res {
			fmt.Printf("  %d. app-%05d  %d accesses\n", rank+1, r.Doc, r.Score)
		}
		if model.Recall(exact, res) != 1 {
			log.Fatalf("%s missed exact TopN", alg.Name())
		}
		fmt.Println()
	}
}

func totalEntries(s *dailyStats) int64 {
	var n int64
	for t := 0; t < s.NumTerms(); t++ {
		n += int64(s.DF(model.TermID(t)))
	}
	return n
}
