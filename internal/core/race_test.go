//go:build race

package core

// The race detector makes sync.Pool drop a share of what it is given,
// so pooled memory is not steady under it, and it slows a query tenfold,
// so the exactness test runs a quarter of its pool.
func init() { raceEnabled = true }
