//go:build race

package algotest_test

// The race detector slows the probe-pool tests (TestNRAFamilyExactScores,
// TestNRAFamilyDeltaSafeScores) tenfold; what it adds there is
// interleavings, which a quarter of the queries exercise.
func init() { probeQueries = 50 }
