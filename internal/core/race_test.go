//go:build race

package core

// The race detector makes sync.Pool drop a share of what it is given,
// so pooled memory is not steady under it.
func init() { raceEnabled = true }
