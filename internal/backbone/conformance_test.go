package backbone

// Conformance under sharding: every protocol invariant the single-cell
// checker enforces must hold unchanged when a cell runs as one kernel
// shard of a deployment. Each cell gets a private conformance.Checker
// through Options.CellTracer, which delivers events inline in exact
// cell-local order — the checkers cannot tell a shard from a
// standalone cell, and neither may their verdicts.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/conformance"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// mirrorBuildConfig reproduces the exact per-cell configuration the
// top-level osumac.Build recipe produces for an ideal-channel scenario,
// so sharded cells run the very scenarios the repo's conformance sweeps
// pin (cell 0 of a deployment seeded with the scenario seed IS the
// scenario: cells run Seed+i).
func mirrorBuildConfig(seed uint64, dataUsers int, load float64, gpsUsers int, legacy bool) core.Config {
	cfg := core.NewConfig()
	cfg.Seed = seed
	cfg.SecondControlField = true
	cfg.DynamicSlotAdjustment = true
	if legacy {
		cfg.GPSGrantPolicy = core.GPSGrantFixed
	}
	cfg.SizeDist = traffic.PaperVariable
	dataSlots := phy.Format1DataSlots
	if gpsUsers <= phy.Format2GPSSlots {
		dataSlots = phy.Format2DataSlots
	}
	if load > 0 && dataUsers > 0 {
		cfg.MeanInterarrival = traffic.InterarrivalForSlots(
			load, dataUsers, cfg.SizeDist, frame.MaxPayload, phy.CycleLength, dataSlots)
	}
	return cfg
}

// populateBuildStyle adds cell `cell`'s population with the top-level
// recipe's join staggering: GPS buses first (joining at i seconds),
// then data users (at i half-seconds). Cell 0 uses the recipe's exact
// EINs (1000+i / 2000+i); later cells shift by 10000·cell to stay
// globally unique.
func populateBuildStyle(t *testing.T, in *Internet, cell, gpsUsers, dataUsers int) {
	t.Helper()
	base := Address(10000 * cell)
	for i := 0; i < gpsUsers; i++ {
		if _, err := in.AddSubscriber(base+Address(1000+i), cell, true, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < dataUsers; i++ {
		if _, err := in.AddSubscriber(base+Address(2000+i), cell, false, time.Duration(i)*500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

// runShardedChecked builds a deployment with a conformance checker per
// cell, runs it, and returns the finished reports.
func runShardedChecked(t *testing.T, cfg core.Config, cells, gpsUsers, dataUsers, cycles int, opts conformance.Options) []*conformance.Report {
	t.Helper()
	checkers := make([]*conformance.Checker, cells)
	in, err := NewWithOptions(cfg, Options{
		Cells:     cells,
		WireDelay: phy.CycleLength,
		CellTracer: func(cell int) core.Tracer {
			checkers[cell] = conformance.New(opts)
			return checkers[cell]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cells; c++ {
		populateBuildStyle(t, in, c, gpsUsers, dataUsers)
	}
	if err := in.Run(cycles); err != nil {
		t.Fatal(err)
	}
	reports := make([]*conformance.Report, cells)
	for c := range checkers {
		reports[c] = checkers[c].Finish()
	}
	return reports
}

// TestShardedConformanceSweep runs a representative slice of the repo's
// conformance sweep grid on the multi-cell engine and requires every
// per-shard checker to pass — the protocol invariants (schedule
// disjointness, format rule, CF2 exclusions, deadline) are engine
// properties, not kernel-layout properties.
func TestShardedConformanceSweep(t *testing.T) {
	type sweep struct {
		gps, data int
		load      float64
		seed      uint64
	}
	grid := []sweep{
		{gps: 2, data: 6, load: 0.5, seed: 1},
		{gps: 4, data: 10, load: 0.8, seed: 42},
		{gps: 7, data: 8, load: 1.0, seed: 8188083318138684029},
	}
	if !testing.Short() {
		grid = append(grid,
			sweep{gps: 0, data: 12, load: 1.2, seed: 7},
			sweep{gps: 8, data: 4, load: 0.6, seed: 99},
		)
	}
	cycles := 60
	if testing.Short() {
		cycles = 25
	}
	for _, s := range grid {
		s := s
		t.Run(fmt.Sprintf("gps=%d_data=%d_load=%.1f_seed=%d", s.gps, s.data, s.load, s.seed), func(t *testing.T) {
			cfg := mirrorBuildConfig(s.seed, s.data, s.load, s.gps, false)
			reports := runShardedChecked(t, cfg, 3, s.gps, s.data, cycles, conformance.Options{
				DeadlineMustHold:   true,
				DynamicSlots:       true,
				SecondControlField: true,
			})
			for c, rep := range reports {
				if !rep.OK() {
					var text strings.Builder
					if err := rep.WriteText(&text); err != nil {
						t.Fatal(err)
					}
					t.Fatalf("cell %d fails conformance under sharding:\n%s", c, text.String())
				}
				if rep.Cycles == 0 {
					t.Fatalf("cell %d checker saw no cycles; the tracer seam is dead", c)
				}
			}
		})
	}
}

// pinnedSeed is the ROADMAP GPS-deadline regression scenario (see
// gps_deadline_regression_test.go at the repo root): seed
// 8188083318138684029, 7 GPS users, 8 data users, load 1.0, 20 warm-up
// + 500 measured cycles. Cell 0 of a deployment seeded with it runs
// exactly that scenario.
const (
	pinnedSeed       = 8188083318138684029
	pinnedGPS        = 7
	pinnedData       = 8
	pinnedCycles     = 520 // WarmupCycles + Cycles
	pinnedViolations = 2   // under the legacy fixed-slot grant policy
)

// TestPinnedGPSRegressionShardedClean: under the default deadline-aware
// grant policy, the pinned scenario stays violation-free when its cell
// runs as shard 0 of a sharded deployment.
func TestPinnedGPSRegressionShardedClean(t *testing.T) {
	cfg := mirrorBuildConfig(pinnedSeed, pinnedData, 1.0, pinnedGPS, false)
	reports := runShardedChecked(t, cfg, 2, pinnedGPS, pinnedData, pinnedCycles, conformance.Options{
		DeadlineMustHold:   true,
		DynamicSlots:       true,
		SecondControlField: true,
	})
	for c, rep := range reports {
		if !rep.OK() {
			var text strings.Builder
			if err := rep.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			t.Fatalf("pinned scenario cell %d violates conformance under sharding:\n%s", c, text.String())
		}
	}
}

// TestPinnedGPSRegressionShardedLegacy: the historical failure must
// reproduce identically under sharding — cell 0 records exactly the two
// pinned violations, proving the shard boundary changes nothing about
// the cell-local schedule evolution.
func TestPinnedGPSRegressionShardedLegacy(t *testing.T) {
	checkers := make([]*conformance.Checker, 2)
	cfg := mirrorBuildConfig(pinnedSeed, pinnedData, 1.0, pinnedGPS, true)
	in, err := NewWithOptions(cfg, Options{
		Cells:     2,
		WireDelay: phy.CycleLength,
		CellTracer: func(cell int) core.Tracer {
			checkers[cell] = conformance.New(conformance.Options{
				DynamicSlots:       true,
				SecondControlField: true,
				KeepEvents:         true,
			})
			return checkers[cell]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		populateBuildStyle(t, in, c, pinnedGPS, pinnedData)
	}
	if err := in.Run(pinnedCycles); err != nil {
		t.Fatal(err)
	}
	if v := in.Cell(0).Metrics().GPSDeadlineViolations.Value(); v != pinnedViolations {
		t.Fatalf("sharded cell 0 records %d GPS deadline violations under legacy grants, want %d — "+
			"the shard boundary perturbed the pinned scenario", v, pinnedViolations)
	}
	if traced := checkers[0].Finish().DeadlineEvents; traced != pinnedViolations {
		t.Fatalf("cell 0 checker saw %d violation events, want %d", traced, pinnedViolations)
	}
}
