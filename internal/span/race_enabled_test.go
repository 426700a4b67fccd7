//go:build race

package span_test

// The race detector instruments the allocator, so allocation counts
// measured under -race do not reflect production behavior; the
// AllocsPerRun guard skips itself there.
const raceEnabled = true
