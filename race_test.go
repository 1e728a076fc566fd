//go:build race

package ccsvm_test

// raceEnabled reports a -race build, whose instrumentation changes how much
// the simulator allocates; TestPaperSeriesTriples skips its allocs check
// there.
const raceEnabled = true
