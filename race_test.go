//go:build race

package repro_test

// The race detector allocates on its own, so TestAllocsGolden's counts
// hold only without it.
func init() { raceOn = true }
