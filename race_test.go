//go:build race

package llstar_test

// The race detector randomly drops sync.Pool items, so allocation
// counts under it say nothing about the code under test.
func init() { raceEnabled = true }
