package span_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	osumac "github.com/osu-netlab/osumac"
	"github.com/osu-netlab/osumac/internal/baseline"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/obs"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/span"
)

// stitchGoldenDigests pins FNV-1a of json.Marshal(span.Stitch(events))
// for a matrix of recorded streams. The JSON carries every Span and
// Trace field (Phase and Kind through PhaseName and KindName) plus the
// Set's counters, so any change in IDs, details, tiling, sort order or
// counts moves a digest. A stitcher rewrite must reproduce every one.
var stitchGoldenDigests = map[string]string{
	"osu-mac/load=0.3/loss=0.00":       "414961d58f4bdd09",
	"osu-mac/load=0.3/loss=0.05":       "2f04da1b153a3645",
	"osu-mac/load=0.9/loss=0.00":       "497e45eccf859dff",
	"osu-mac/load=0.9/loss=0.05":       "dbda46671b0f9c5c",
	"osu-mac/legacy-grants":            "0d9ce2f7e577b640",
	"prma/load=0.3":                    "af3cd29e5feb347f",
	"prma/load=0.9":                    "731a5d98cb8e9291",
	"d-tdma/load=0.3":                  "03ff6aacfda4a12f",
	"d-tdma/load=0.9":                  "54490c7f8c083773",
	"rama/load=0.3":                    "6141bbbb3d19b3ac",
	"rama/load=0.9":                    "4db4d70c3b89f0f9",
	"drma/load=0.3":                    "3c14ffdd796faca6",
	"drma/load=0.9":                    "a9eedacd8f88779a",
	"fama/load=0.3":                    "5ee4c231b9359c88",
	"fama/load=0.9":                    "5dd0cae398afc207",
	"osu-mac/load=0.9/loss=0.05/late":  "4e4133313401ac09",
	"osu-mac/load=0.9/loss=0.05/jsonl": "dbda46671b0f9c5c",
}

// goldenStream is one recorded event stream of the digest matrix.
type goldenStream struct {
	name   string
	events func(t *testing.T) []core.TraceEvent
}

func goldenStreams() []goldenStream {
	var out []goldenStream
	cell := func(load, loss float64) osumac.Scenario {
		return osumac.Scenario{
			Seed:          11,
			GPSUsers:      4,
			DataUsers:     10,
			Load:          load,
			VariableSizes: true,
			Cycles:        200,
			WarmupCycles:  10,
			ReverseLoss:   loss,
			ForwardLoss:   loss,
		}
	}
	for _, load := range []float64{0.3, 0.9} {
		for _, loss := range []float64{0, 0.05} {
			scn := cell(load, loss)
			out = append(out, goldenStream{
				name:   fmt.Sprintf("osu-mac/load=%.1f/loss=%.2f", load, loss),
				events: func(t *testing.T) []core.TraceEvent { return runTracedFull(t, scn) },
			})
		}
	}
	legacy := osumac.NewScenario()
	legacy.Seed = 8188083318138684029
	legacy.GPSUsers = 7
	legacy.DataUsers = 8
	legacy.Load = 1.0
	legacy.LegacyGPSGrants = true
	out = append(out, goldenStream{
		name:   "osu-mac/legacy-grants",
		events: func(t *testing.T) []core.TraceEvent { return runTracedFull(t, legacy) },
	})
	for _, p := range baseline.All() {
		for _, load := range []float64{0.3, 0.9} {
			name := p.Name()
			out = append(out, goldenStream{
				name: fmt.Sprintf("%s/load=%.1f", name, load),
				events: func(t *testing.T) []core.TraceEvent {
					return runBaselineGrid(t, name, load, 11)
				},
			})
		}
	}
	// No recorded run reports a GPS deadline miss as "late" (reports are
	// replaced as stale first), so one stream gets late violations
	// spliced in ahead of every third GPS slot event, received or lost.
	lossy := cell(0.9, 0.05)
	out = append(out, goldenStream{
		name: "osu-mac/load=0.9/loss=0.05/late",
		events: func(t *testing.T) []core.TraceEvent {
			var spliced []core.TraceEvent
			n := 0
			for _, e := range runTracedFull(t, lossy) {
				if e.Kind == core.EventGPSRx || e.Kind == core.EventGPSLost {
					if n++; n%3 == 0 {
						late := core.TraceEvent{At: e.At, Cycle: e.Cycle, Kind: core.EventGPSDeadlineViolation,
							User: e.User, Slot: e.Slot, DK: core.DetailGPSLate,
							Arg0: int64(phy.GPSAccessDeadline + time.Duration(n)*time.Millisecond),
							Arg1: int64(phy.GPSAccessDeadline)}
						spliced = append(spliced, late.Materialized())
					}
				}
				spliced = append(spliced, e)
			}
			return spliced
		},
	})
	jsonl := cell(0.9, 0.05)
	out = append(out, goldenStream{
		name: "osu-mac/load=0.9/loss=0.05/jsonl",
		events: func(t *testing.T) []core.TraceEvent {
			var buf bytes.Buffer
			sink := obs.NewJSONLSink(&buf)
			jsonl.Tracer = sink
			if _, err := osumac.Run(jsonl); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := obs.DecodeJSONL(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return events
		},
	})
	return out
}

// runTracedFull runs a scenario into an unbounded-enough buffer and
// fails if any event was evicted.
func runTracedFull(t testing.TB, scn osumac.Scenario) []core.TraceEvent {
	t.Helper()
	buf := &core.TraceBuffer{Cap: 1 << 20}
	scn.Tracer = buf
	if _, err := osumac.Run(scn); err != nil {
		t.Fatal(err)
	}
	if d := buf.Dropped(); d != 0 {
		t.Fatalf("trace buffer dropped %d events", d)
	}
	return buf.Events()
}

// runBaselineGrid runs one baseline MAC the way a tournament cell does:
// 10 users, 200 frames, OSU-MAC's format-1 data-slot count.
func runBaselineGrid(t testing.TB, name string, load float64, seed uint64) []core.TraceEvent {
	t.Helper()
	buf := &core.TraceBuffer{Cap: 1 << 20}
	if _, err := baseline.Run(baseline.Config{
		Protocol: baseline.ByName(name),
		Users:    10,
		Frames:   200,
		Slots:    phy.Format1DataSlots,
		Load:     load,
		Seed:     seed,
		Tracer:   buf,
	}); err != nil {
		t.Fatal(err)
	}
	if d := buf.Dropped(); d != 0 {
		t.Fatalf("trace buffer dropped %d events", d)
	}
	return buf.Events()
}

func TestStitchGoldenDigests(t *testing.T) {
	for _, g := range goldenStreams() {
		t.Run(g.name, func(t *testing.T) {
			raw, err := json.Marshal(span.Stitch(g.events(t)))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(raw)
			got := fmt.Sprintf("%016x", h.Sum64())
			if want := stitchGoldenDigests[g.name]; got != want {
				t.Errorf("stitched digest %s, want %s (%d JSON bytes)", got, want, len(raw))
			}
		})
	}
}
