//go:build race

package sched

// The race detector instruments the allocator, so allocation counts
// measured under -race do not reflect production behavior; the
// AllocsPerRun guards skip themselves there.
const raceEnabled = true
