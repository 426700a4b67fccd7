package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/osu-netlab/osumac/internal/frame"
)

func smallTournament() TournamentConfig {
	return TournamentConfig{
		Seed:      9,
		Users:     8,
		Frames:    80,
		Loads:     []float64{0.4, 0.8},
		Protocols: []string{"prma", "rama", OSUMACName},
	}
}

// TestTournamentDeterministicAcrossWorkers is the fan-out contract:
// serial and parallel tournaments must marshal byte-identically.
func TestTournamentDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallTournament()
	cfg.Workers = 1
	serial, err := Tournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Tournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("serial and parallel tournaments differ:\nserial   %.300s\nparallel %.300s", sj, pj)
	}
}

// TestTournamentEntryShape checks one entry end to end: label stamped,
// run progress marked done, shared descriptors and the pinned per-load
// gauges present, spans captured.
func TestTournamentEntryShape(t *testing.T) {
	entries, err := Tournament(TournamentConfig{
		Seed: 3, Users: 8, Frames: 60,
		Loads:     []float64{0.5},
		Protocols: []string{"drma"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Protocol != "drma" || e.Export.Label != "drma" {
		t.Fatalf("entry labeled (%q, %q), want drma", e.Protocol, e.Export.Label)
	}
	if !e.Export.Done || e.Export.Cycle != 60 {
		t.Fatalf("run progress = (done=%v, cycle=%d), want (true, 60)", e.Export.Done, e.Export.Cycle)
	}
	names := map[string]bool{}
	for _, m := range e.Export.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{
		"osumac_baseline_utilization",
		"osumac_baseline_fairness",
		"osumac_baseline_deadline_miss_ratio",
		"osumac_baseline_message_delay_seconds",
		"osumac_baseline_load_050_utilization",
		"osumac_baseline_load_050_mean_delay_seconds",
		"osumac_baseline_load_050_collision_rate",
		"osumac_baseline_load_050_fairness",
	} {
		if !names[want] {
			t.Errorf("export misses metric %s", want)
		}
	}
	if e.Export.Spans == nil || e.Export.Spans.Traces == 0 {
		t.Fatal("export carries no span distribution")
	}
	if e.Export.Runtime != nil {
		t.Fatal("tournament exports must not embed runtime telemetry")
	}
}

// TestTournamentDefaultField asserts the default grid covers OSU-MAC
// plus every baseline without running it (validation only).
func TestTournamentDefaultField(t *testing.T) {
	if _, err := Tournament(TournamentConfig{Protocols: []string{"no-such-mac"}}); err == nil ||
		!strings.Contains(err.Error(), "no-such-mac") {
		t.Fatalf("unknown protocol accepted: %v", err)
	}
	// Tracing caps the user count; the tournament must surface the
	// baseline.Run validation error rather than panic.
	if _, err := Tournament(TournamentConfig{
		Users: int(frame.NoUser), Frames: 10, Loads: []float64{0.5}, Protocols: []string{"prma"},
	}); err == nil {
		t.Fatal("oversized user population accepted")
	}
}

// TestTournamentRefusesTruncatedTrace fills a cell's trace buffer: the
// tournament must fail naming the cell, not stitch a truncated trace.
func TestTournamentRefusesTruncatedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("records over a million trace events")
	}
	_, err := Tournament(TournamentConfig{
		Seed: 1, Users: 60, Frames: 8000,
		Loads:     []float64{0.9},
		Protocols: []string{"prma"},
	})
	if err == nil {
		t.Fatal("tournament stitched a truncated trace")
	}
	for _, want := range []string{"prma", "0.90", "dropped"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
