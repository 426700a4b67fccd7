package backbone

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/conformance"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// twinScenario is one differential-test configuration: the same
// deployment is run on the shared-kernel oracle and the production
// engine and every observable output must match byte for byte.
type twinScenario struct {
	cells     int
	gps, data int // subscribers per cell
	load      float64
	seed      uint64
	warm      int // settle cycles before cross-traffic is injected
	main      int // measured cycles
	wire      time.Duration
	lookahead time.Duration // 0: WireDelay
	sends     int           // ring-pattern cross-cell messages
}

func (s twinScenario) String() string {
	return fmt.Sprintf("cells=%d gps=%d data=%d load=%.1f seed=%d wire=%v la=%v sends=%d",
		s.cells, s.gps, s.data, s.load, s.seed, s.wire, s.lookahead, s.sends)
}

// twinOutcome is everything a run exposes, in comparable form.
type twinOutcome struct {
	cellSnaps []string // per-cell metrics snapshot JSON
	cellErrs  []string // per-cell core run errors
	traces    []core.TraceEvent
	forwarded uint64
	delivered uint64
	latVals   []float64
	latSum    float64
	sendErrs  []string
	reports   []string // per-cell conformance reports
	runErr    string
}

// dataAddr returns the global address of data subscriber i in cell c.
func dataAddr(c, i int) Address { return Address(10000 + c*64 + i) }

// newDeployment builds a deployment on the production engine, or on
// the shared-kernel oracle when onOracle is set, and returns it with
// the Run that drives it.
func newDeployment(cfg core.Config, o Options, onOracle bool) (*Internet, func(cycles int) error, error) {
	if !onOracle {
		in, err := NewWithOptions(cfg, o)
		if err != nil {
			return nil, nil, err
		}
		return in, in.Run, nil
	}
	or, err := newOracle(cfg, o)
	if err != nil {
		return nil, nil, err
	}
	return or.Internet, or.Run, nil
}

// buildTwin constructs the deployment for a scenario on one engine.
func buildTwin(t *testing.T, s twinScenario, onOracle bool, tracer core.Tracer, cellTracer func(int) core.Tracer) (*Internet, func(int) error) {
	t.Helper()
	cfg := core.NewConfig()
	cfg.Seed = s.seed
	cfg.Tracer = tracer
	if s.load > 0 && s.data > 0 {
		dataSlots := phy.Format1DataSlots
		if s.gps <= phy.Format2GPSSlots {
			dataSlots = phy.Format2DataSlots
		}
		cfg.MeanInterarrival = traffic.InterarrivalForSlots(
			s.load, s.data, cfg.SizeDist, frame.MaxPayload, phy.CycleLength, dataSlots)
	}
	in, run, err := newDeployment(cfg, Options{
		Cells:      s.cells,
		WireDelay:  s.wire,
		Lookahead:  s.lookahead,
		CellTracer: cellTracer,
	}, onOracle)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < s.cells; c++ {
		for i := 0; i < s.gps; i++ {
			if _, err := in.AddSubscriber(Address(1000+c*8+i), c, true, time.Duration(i)*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < s.data; i++ {
			if _, err := in.AddSubscriber(dataAddr(c, i), c, false, time.Duration(i)*500*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	return in, run
}

// runTwin executes a scenario on one engine and collects the outcome.
func runTwin(t *testing.T, s twinScenario, onOracle bool) twinOutcome {
	t.Helper()
	buf := &core.TraceBuffer{Cap: 1 << 21}
	checkers := make([]*conformance.Checker, s.cells)
	cellTracer := func(cell int) core.Tracer {
		checkers[cell] = conformance.New(conformance.Options{
			DeadlineMustHold:   true,
			DynamicSlots:       true,
			SecondControlField: true,
		})
		return checkers[cell]
	}
	in, run := buildTwin(t, s, onOracle, buf, cellTracer)
	var out twinOutcome
	record := func(err error) {
		if err != nil && out.runErr == "" {
			out.runErr = err.Error()
		}
	}
	record(run(s.warm))
	for k := 0; k < s.sends && out.runErr == ""; k++ {
		src := dataAddr(k%s.cells, k%s.data)
		dst := dataAddr((k+1)%s.cells, (k/s.cells)%s.data)
		size := 60 + 40*(k%9)
		if err := in.Send(src, dst, size); err != nil {
			out.sendErrs = append(out.sendErrs, fmt.Sprintf("send %d: %v", k, err))
		}
	}
	if out.runErr == "" {
		record(run(s.main))
	}
	for c := 0; c < s.cells; c++ {
		snap, err := json.Marshal(in.Cell(c).Metrics().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		out.cellSnaps = append(out.cellSnaps, string(snap))
		cellErr := ""
		if err := in.Cell(c).Err(); err != nil {
			cellErr = err.Error()
		}
		out.cellErrs = append(out.cellErrs, cellErr)
		var rep strings.Builder
		if err := checkers[c].Finish().WriteText(&rep); err != nil {
			t.Fatal(err)
		}
		out.reports = append(out.reports, rep.String())
	}
	out.traces = buf.Events()
	out.forwarded = in.Forwarded.Value()
	out.delivered = in.Delivered.Value()
	out.latVals = in.EndToEndLat.Values()
	out.latSum = in.EndToEndLat.Sum()
	return out
}

// compareOutcomes asserts byte-identity of two engine outcomes.
func compareOutcomes(t *testing.T, label string, a, b twinOutcome) {
	t.Helper()
	if a.runErr != b.runErr {
		t.Fatalf("%s: run errors differ: %q vs %q", label, a.runErr, b.runErr)
	}
	if len(a.sendErrs) != len(b.sendErrs) {
		t.Fatalf("%s: send errors differ: %v vs %v", label, a.sendErrs, b.sendErrs)
	}
	for i := range a.sendErrs {
		if a.sendErrs[i] != b.sendErrs[i] {
			t.Fatalf("%s: send error %d differs: %q vs %q", label, i, a.sendErrs[i], b.sendErrs[i])
		}
	}
	if a.forwarded != b.forwarded || a.delivered != b.delivered {
		t.Fatalf("%s: backbone counters differ: fwd %d/%d del %d/%d",
			label, a.forwarded, b.forwarded, a.delivered, b.delivered)
	}
	if a.latSum != b.latSum || len(a.latVals) != len(b.latVals) {
		t.Fatalf("%s: latency samples differ: n=%d/%d sum=%v/%v",
			label, len(a.latVals), len(b.latVals), a.latSum, b.latSum)
	}
	for i := range a.latVals {
		if a.latVals[i] != b.latVals[i] {
			t.Fatalf("%s: latency value %d differs: %v vs %v", label, i, a.latVals[i], b.latVals[i])
		}
	}
	for c := range a.cellSnaps {
		if a.cellSnaps[c] != b.cellSnaps[c] {
			t.Fatalf("%s: cell %d metrics snapshot differs:\nA: %s\nB: %s",
				label, c, a.cellSnaps[c], b.cellSnaps[c])
		}
		if a.cellErrs[c] != b.cellErrs[c] {
			t.Fatalf("%s: cell %d error differs: %q vs %q", label, c, a.cellErrs[c], b.cellErrs[c])
		}
		if a.reports[c] != b.reports[c] {
			t.Fatalf("%s: cell %d conformance report differs:\nA:\n%s\nB:\n%s",
				label, c, a.reports[c], b.reports[c])
		}
	}
	if len(a.traces) != len(b.traces) {
		t.Fatalf("%s: trace stream lengths differ: %d vs %d", label, len(a.traces), len(b.traces))
	}
	for i := range a.traces {
		if a.traces[i] != b.traces[i] {
			t.Fatalf("%s: trace event %d differs:\nA: %+v\nB: %+v", label, i, a.traces[i], b.traces[i])
		}
	}
}

// twinGrid is the differential battery's scenario grid.
func twinGrid(short bool) []twinScenario {
	grid := []twinScenario{
		{cells: 2, gps: 1, data: 2, load: 0.5, seed: 1, warm: 4, main: 10, wire: 30 * time.Millisecond, sends: 4},
		{cells: 3, gps: 2, data: 3, load: 0.8, seed: 42, warm: 4, main: 12, wire: 250 * time.Millisecond, sends: 9},
		{cells: 4, gps: 0, data: 4, load: 1.0, seed: 8188083318138684029, warm: 5, main: 10, wire: phy.CycleLength, sends: 12},
	}
	if !short {
		grid = append(grid,
			twinScenario{cells: 2, gps: 4, data: 6, load: 0.9, seed: 7, warm: 6, main: 25, wire: 100 * time.Millisecond, sends: 16},
			twinScenario{cells: 6, gps: 1, data: 2, load: 0.5, seed: 99, warm: 4, main: 20, wire: 50 * time.Millisecond, lookahead: 20 * time.Millisecond, sends: 24},
			twinScenario{cells: 3, gps: 3, data: 4, load: 1.1, seed: 3, warm: 5, main: 30, wire: time.Second, sends: 18},
		)
	}
	return grid
}

// TestTwinShardedMatchesSerial is the core differential battery: the
// per-cell-kernel production engine against the shared-kernel oracle,
// byte for byte over a (cells × subscribers × loads × seeds) grid,
// comparing metrics snapshots, trace streams, and per-cell conformance
// reports.
func TestTwinShardedMatchesSerial(t *testing.T) {
	for _, s := range twinGrid(testing.Short()) {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			want := runTwin(t, s, true)
			got := runTwin(t, s, false)
			compareOutcomes(t, "oracle vs production", want, got)
			if len(want.traces) == 0 {
				t.Fatal("empty trace stream; the comparison proved nothing")
			}
			if s.sends > 0 && want.forwarded == 0 {
				t.Fatal("no cross-cell traffic forwarded; the exchange path was not exercised")
			}
		})
	}
}

// TestTwinGOMAXPROCS pins scheduler independence: the production
// engine must produce identical bytes at GOMAXPROCS=1 and GOMAXPROCS=N.
func TestTwinGOMAXPROCS(t *testing.T) {
	s := twinScenario{cells: 4, gps: 2, data: 3, load: 0.8, seed: 42,
		warm: 4, main: 12, wire: 120 * time.Millisecond, sends: 10}
	prev := runtime.GOMAXPROCS(1)
	one := runTwin(t, s, false)
	runtime.GOMAXPROCS(8)
	many := runTwin(t, s, false)
	runtime.GOMAXPROCS(prev)
	compareOutcomes(t, "GOMAXPROCS 1 vs 8", one, many)
}

// TestTwinFlakeDetector requires three consecutive identical
// production runs: a scheduler-dependent leak shows up as run-to-run
// jitter long before it shows up against the oracle.
func TestTwinFlakeDetector(t *testing.T) {
	s := twinScenario{cells: 3, gps: 1, data: 3, load: 0.9, seed: 11,
		warm: 4, main: 10, wire: 80 * time.Millisecond, sends: 8}
	first := runTwin(t, s, false)
	for rep := 1; rep < 3; rep++ {
		again := runTwin(t, s, false)
		compareOutcomes(t, fmt.Sprintf("run 0 vs run %d", rep), first, again)
	}
}

// TestTwinLookaheadInvariance: every legal barrier window length must
// produce the same bytes — the window is a performance knob, not a
// semantic one.
func TestTwinLookaheadInvariance(t *testing.T) {
	base := twinScenario{cells: 3, gps: 1, data: 2, load: 0.7, seed: 5,
		warm: 4, main: 10, wire: 200 * time.Millisecond, sends: 6}
	ref := runTwin(t, base, false)
	for _, la := range []time.Duration{200 * time.Millisecond, 70 * time.Millisecond, time.Millisecond} {
		s := base
		s.lookahead = la
		got := runTwin(t, s, false)
		compareOutcomes(t, fmt.Sprintf("lookahead %v", la), ref, got)
	}
}

// TestShardedValidation pins the constructor contract: a positive
// WireDelay (the lookahead bound) and a lookahead within it.
func TestShardedValidation(t *testing.T) {
	cfg := core.NewConfig()
	if _, err := NewWithOptions(cfg, Options{Cells: 2}); err == nil {
		t.Fatal("deployment without WireDelay accepted")
	}
	if _, err := NewWithOptions(cfg, Options{Cells: 1, WireDelay: -time.Millisecond}); err == nil {
		t.Fatal("negative WireDelay accepted")
	}
	if _, err := NewWithOptions(cfg, Options{Cells: 2,
		WireDelay: 10 * time.Millisecond, Lookahead: 20 * time.Millisecond}); err == nil {
		t.Fatal("lookahead beyond WireDelay accepted")
	}
	in, err := NewWithOptions(cfg, Options{Cells: 2, WireDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if in.Now() != 0 {
		t.Fatalf("fresh deployment Now() = %v", in.Now())
	}
}

// TestCellError: a mid-flight cell failure surfaces as a *CellError
// naming the cell and failure time, on the oracle and on the
// production engine, where the healthy cells keep their window-local
// partial progress.
func TestCellError(t *testing.T) {
	for _, tc := range []struct {
		name     string
		onOracle bool
	}{{"oracle", true}, {"production", false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.NewConfig()
			cfg.Seed = 5
			in, run, err := newDeployment(cfg, Options{Cells: 3, WireDelay: 30 * time.Millisecond}, tc.onOracle)
			if err != nil {
				t.Fatal(err)
			}
			boom := errors.New("injected fault")
			failAt := 5 * time.Second
			cell := in.Cell(1)
			cell.Sim().After(failAt, func() { cell.Abort("twin-test", boom) })
			runErr := run(4)
			var ce *CellError
			if !errors.As(runErr, &ce) {
				t.Fatalf("err = %v, want *CellError", runErr)
			}
			if ce.Cell != 1 {
				t.Fatalf("failed cell = %d, want 1", ce.Cell)
			}
			if ce.At != failAt {
				t.Fatalf("failure time = %v, want %v", ce.At, failAt)
			}
			if !errors.Is(runErr, boom) {
				t.Fatal("CellError must unwrap to the injected cause")
			}
			var ie *core.InternalError
			if !errors.As(runErr, &ie) {
				t.Fatal("CellError must unwrap to the cell's *core.InternalError")
			}
			if in.Cell(0).Cycle() == 0 || in.Cell(2).Cycle() == 0 {
				t.Fatal("healthy cells lost their partial progress")
			}
		})
	}
}

// TestShardedMultiRunSegments: segmented Run calls with between-run
// sends must match the oracle run of the same segmentation.
func TestShardedMultiRunSegments(t *testing.T) {
	segmented := func(onOracle bool) twinOutcome {
		buf := &core.TraceBuffer{Cap: 1 << 20}
		s := twinScenario{cells: 2, gps: 0, data: 2, load: 0.6, seed: 17,
			wire: 40 * time.Millisecond}
		in, run := buildTwin(t, s, onOracle, buf, nil)
		var out twinOutcome
		for seg := 0; seg < 3; seg++ {
			if err := run(4); err != nil {
				t.Fatal(err)
			}
			if err := in.Send(dataAddr(0, seg%2), dataAddr(1, seg%2), 150); err != nil {
				out.sendErrs = append(out.sendErrs, err.Error())
			}
		}
		if err := run(8); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			snap, err := json.Marshal(in.Cell(c).Metrics().Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			out.cellSnaps = append(out.cellSnaps, string(snap))
			out.cellErrs = append(out.cellErrs, "")
			out.reports = append(out.reports, "")
		}
		out.traces = buf.Events()
		out.forwarded = in.Forwarded.Value()
		out.delivered = in.Delivered.Value()
		out.latVals = in.EndToEndLat.Values()
		out.latSum = in.EndToEndLat.Sum()
		return out
	}
	compareOutcomes(t, "segmented", segmented(true), segmented(false))
}

// TestOneCellMatchesStandalone: a one-cell deployment is a standalone
// cell. core.NewNetwork and a one-cell Internet built from the same
// config and population must produce the same metrics snapshot, trace
// stream, per-cycle series and kernel event count over a split run,
// whatever the wire delay.
func TestOneCellMatchesStandalone(t *testing.T) {
	const gps, data = 5, 8
	type outcome struct {
		snap   string
		series []core.CyclePoint
		traces []core.TraceEvent
		events uint64
	}
	populate := func(add func(ein frame.EIN, isGPS bool, joinAt time.Duration) error) {
		t.Helper()
		for i := 0; i < gps; i++ {
			if err := add(frame.EIN(1000+i), true, time.Duration(i)*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < data; i++ {
			if err := add(frame.EIN(2000+i), false, time.Duration(i)*500*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	collect := func(n *core.Network, buf *core.TraceBuffer) outcome {
		t.Helper()
		snap, err := json.Marshal(n.Metrics().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return outcome{snap: string(snap), series: n.Metrics().Series, traces: buf.Events(), events: n.Sim().EventsFired()}
	}
	for _, seed := range []uint64{1, 42, 8188083318138684029} {
		cfg := core.NewConfig()
		cfg.Seed = seed
		cfg.CollectSeries = true
		cfg.MeanInterarrival = traffic.InterarrivalForSlots(
			0.9, data, cfg.SizeDist, frame.MaxPayload, phy.CycleLength, phy.Format1DataSlots)

		alone := cfg
		aloneBuf := &core.TraceBuffer{Cap: 1 << 20}
		alone.Tracer = aloneBuf
		n, err := core.NewNetwork(alone)
		if err != nil {
			t.Fatal(err)
		}
		populate(func(ein frame.EIN, isGPS bool, joinAt time.Duration) error {
			_, err := n.AddSubscriber(ein, isGPS, joinAt)
			return err
		})
		for _, cycles := range []int{10, 60} {
			if err := n.Run(cycles); err != nil {
				t.Fatal(err)
			}
		}
		want := collect(n, aloneBuf)
		if len(want.traces) == 0 || len(want.series) == 0 {
			t.Fatal("empty trace stream or series; the comparison proved nothing")
		}

		for _, wire := range []time.Duration{25 * time.Millisecond, phy.CycleLength} {
			label := fmt.Sprintf("seed=%d wire=%v", seed, wire)
			deployed := cfg
			buf := &core.TraceBuffer{Cap: 1 << 20}
			deployed.Tracer = buf
			in, err := NewWithOptions(deployed, Options{Cells: 1, WireDelay: wire})
			if err != nil {
				t.Fatal(err)
			}
			populate(func(ein frame.EIN, isGPS bool, joinAt time.Duration) error {
				_, err := in.AddSubscriber(ein, 0, isGPS, joinAt)
				return err
			})
			for _, cycles := range []int{10, 60} {
				if err := in.Run(cycles); err != nil {
					t.Fatal(err)
				}
			}
			got := collect(in.Cell(0), buf)
			if got.snap != want.snap {
				t.Fatalf("%s: metrics snapshot differs:\ncell:       %s\nstandalone: %s", label, got.snap, want.snap)
			}
			if !reflect.DeepEqual(got.series, want.series) {
				t.Fatalf("%s: per-cycle series differs", label)
			}
			if got.events != want.events {
				t.Fatalf("%s: %d kernel events, standalone fired %d", label, got.events, want.events)
			}
			if len(got.traces) != len(want.traces) {
				t.Fatalf("%s: %d trace events, standalone emitted %d", label, len(got.traces), len(want.traces))
			}
			for i := range got.traces {
				if got.traces[i] != want.traces[i] {
					t.Fatalf("%s: trace event %d differs:\ncell:       %+v\nstandalone: %+v",
						label, i, got.traces[i], want.traces[i])
				}
			}
		}
	}
}
