// Adaptive parallelism — the resource-management idea of Jeon et al.
// (SIGIR'14), which the paper cites as orthogonal to its contribution
// (§6): "an adaptive resource management algorithm that chooses the
// degree of parallelism at runtime for each query, based on predicting
// high-latency queries." Short queries run sequentially (parallelizing
// them wastes threads other queries could use); queries predicted slow
// get the full intra-query parallelism.
//
// The predictor follows the paper's own cost intuition: a query's work
// is driven by its posting-list volume, so the predicted cost is the
// sum of its terms' document frequencies.
package sched

import (
	"sparta/internal/model"
	"sparta/internal/postings"
	"sparta/internal/topk"
)

// CostPredictor estimates a query's evaluation cost.
type CostPredictor func(q model.Query) int64

// DFPredictor predicts cost as the total posting volume of the query's
// terms — the dominant work driver for every algorithm in this
// repository.
func DFPredictor(view postings.View) CostPredictor {
	return func(q model.Query) int64 {
		var sum int64
		for _, t := range q {
			sum += int64(view.DF(t))
		}
		return sum
	}
}

// RunAdaptive drives the stream like Run, but chooses each query's
// parallelism with the predictor: queries with predicted cost below
// longThreshold request a single thread, others request their term
// count. Admission remains FCFS on the shared pool.
func RunAdaptive(alg topk.Algorithm, queryStream []model.Query, poolSize int,
	baseOpts topk.Options, predict CostPredictor, longThreshold int64) Result {
	return run(alg, queryStream, poolSize, baseOpts, func(q model.Query) int {
		if predict(q) >= longThreshold {
			return len(q)
		}
		return 1
	})
}
