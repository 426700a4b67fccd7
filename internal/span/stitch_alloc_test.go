package span_test

import (
	"testing"

	osumac "github.com/osu-netlab/osumac"
	"github.com/osu-netlab/osumac/internal/baseline"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/span"
)

// tournamentStreams records the 24 event streams of the seed-42
// tournament grid (OSU-MAC and the five baselines × loads 0.3–0.9, 10
// users, 200 frames), the input experiments.Tournament stitches: 67 245
// events that stitch into 3 430 traces of 50 774 spans.
func tournamentStreams(tb testing.TB) [][]core.TraceEvent {
	tb.Helper()
	const seed = 42
	loads := []float64{0.3, 0.5, 0.7, 0.9}
	var out [][]core.TraceEvent
	for _, load := range loads {
		out = append(out, runTracedFull(tb, osumac.Scenario{
			Seed:          seed,
			DataUsers:     10,
			Load:          load,
			VariableSizes: true,
			Cycles:        200,
			WarmupCycles:  10,
		}))
	}
	for _, p := range baseline.All() {
		for _, load := range loads {
			out = append(out, runBaselineGrid(tb, p.Name(), load, seed))
		}
	}
	return out
}

// stitchAll stitches every stream and returns the trace count.
func stitchAll(streams [][]core.TraceEvent) (traces int) {
	for _, s := range streams {
		traces += len(span.Stitch(s).Traces)
	}
	return traces
}

// TestStitchAllocsPerTrace guards the stitcher's allocation budget: a
// handful of allocations per trace (the trace, its span slice, its
// string) and none per span or per event.
func TestStitchAllocsPerTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	streams := tournamentStreams(t)
	traces := stitchAll(streams)
	const budget = 25
	allocs := testing.AllocsPerRun(3, func() { stitchAll(streams) })
	if per := allocs / float64(traces); per > budget {
		t.Fatalf("span.Stitch makes %.1f allocations per trace (%.0f per grid), budget %d", per, allocs, budget)
	}
}

// BenchmarkStitch stitches the seed-42 tournament grid once per op.
func BenchmarkStitch(b *testing.B) {
	streams := tournamentStreams(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stitchAll(streams)
	}
}
