package osumac

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5) plus the §2.1 design-requirement checks and the
// DESIGN.md extension experiments. Each benchmark runs the experiment
// at a bench-sized scale and reports the figure's headline metrics via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// artifact's numbers. cmd/experiments produces the full-scale tables.

import (
	"fmt"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/baseline"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/flight"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/rs"
	"github.com/osu-netlab/osumac/internal/sim"
)

const (
	benchCycles = 200
	benchWarmup = 15
	benchSeed   = 42
)

func benchScenario(load float64) Scenario {
	return Scenario{
		Seed:          benchSeed,
		GPSUsers:      4,
		DataUsers:     10,
		Load:          load,
		VariableSizes: true,
		Cycles:        benchCycles,
		WarmupCycles:  benchWarmup,
	}
}

// BenchmarkTable2SlotTimes regenerates the reverse-channel access-time
// table (paper Table 2) and reports the first GPS and data slot offsets.
func BenchmarkTable2SlotTimes(b *testing.B) {
	var gps1, data1 float64
	for i := 0; i < b.N; i++ {
		l1 := core.NewLayout(core.Format1)
		g, d := l1.Table2AccessTimes()
		gps1 = g[0].Seconds()
		data1 = d[0].Seconds()
	}
	b.ReportMetric(gps1, "gps-slot1-s")
	b.ReportMetric(data1, "data-slot1-s")
}

// BenchmarkFig8aUtilization reports reverse-link utilization at the
// paper's low / mid / saturated load points (Fig. 8a: tracks ρ until
// ~0.9, then saturates below the offered load).
func BenchmarkFig8aUtilization(b *testing.B) {
	for _, load := range []float64{0.3, 0.9, 1.1} {
		load := load
		b.Run(fmt.Sprintf("load=%.1f", load), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				res, err := Run(benchScenario(load))
				if err != nil {
					b.Fatal(err)
				}
				util = res.Utilization
			}
			b.ReportMetric(util, "utilization")
		})
	}
}

// BenchmarkFig8bDelay reports mean message delay in cycles (Fig. 8b:
// small at light load, dramatic increase beyond ρ = 0.9).
func BenchmarkFig8bDelay(b *testing.B) {
	for _, load := range []float64{0.3, 0.9, 1.1} {
		load := load
		b.Run(fmt.Sprintf("load=%.1f", load), func(b *testing.B) {
			var delay float64
			for i := 0; i < b.N; i++ {
				res, err := Run(benchScenario(load))
				if err != nil {
					b.Fatal(err)
				}
				delay = res.MeanDelayCycles
			}
			b.ReportMetric(delay, "delay-cycles")
		})
	}
}

// BenchmarkFig9aCollision reports the contention-slot collision
// probability (Fig. 9/10: falls at high load as piggybacking replaces
// contention).
func BenchmarkFig9aCollision(b *testing.B) {
	for _, load := range []float64{0.5, 1.1} {
		load := load
		b.Run(fmt.Sprintf("load=%.1f", load), func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				res, err := Run(benchScenario(load))
				if err != nil {
					b.Fatal(err)
				}
				p = res.CollisionProbability
			}
			b.ReportMetric(p, "collision-prob")
		})
	}
}

// BenchmarkFig9bReservationLatency reports mean reservation latency
// (Fig. 9/10: decreases with load).
func BenchmarkFig9bReservationLatency(b *testing.B) {
	for _, load := range []float64{0.5, 1.1} {
		load := load
		b.Run(fmt.Sprintf("load=%.1f", load), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				res, err := Run(benchScenario(load))
				if err != nil {
					b.Fatal(err)
				}
				lat = res.ReservationLatency
			}
			b.ReportMetric(lat, "res-latency-s")
		})
	}
}

// BenchmarkFig10ControlOverhead reports reservation signals per data
// packet (Fig. 10: decreases with load as requests ride in data-packet
// headers).
func BenchmarkFig10ControlOverhead(b *testing.B) {
	for _, load := range []float64{0.3, 1.1} {
		load := load
		b.Run(fmt.Sprintf("load=%.1f", load), func(b *testing.B) {
			var ovhd float64
			for i := 0; i < b.N; i++ {
				res, err := Run(benchScenario(load))
				if err != nil {
					b.Fatal(err)
				}
				ovhd = res.ControlOverhead
			}
			b.ReportMetric(ovhd, "ctl-overhead")
		})
	}
}

// BenchmarkFig11Fairness reports Jain's fairness index (Fig. 11: above
// 0.99 at all loads).
func BenchmarkFig11Fairness(b *testing.B) {
	for _, load := range []float64{0.3, 0.9} {
		load := load
		b.Run(fmt.Sprintf("load=%.1f", load), func(b *testing.B) {
			var fair float64
			for i := 0; i < b.N; i++ {
				res, err := Run(benchScenario(load))
				if err != nil {
					b.Fatal(err)
				}
				fair = res.Fairness
			}
			b.ReportMetric(fair, "jain-fairness")
		})
	}
}

// BenchmarkFig12aSecondCF reports the bandwidth share carried by the
// CF2-covered last data slot (Fig. 12a: 5-14 %).
func BenchmarkFig12aSecondCF(b *testing.B) {
	for _, load := range []float64{0.3, 1.0} {
		load := load
		b.Run(fmt.Sprintf("load=%.1f", load), func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				res, err := Run(benchScenario(load))
				if err != nil {
					b.Fatal(err)
				}
				gain = res.SecondCFGain
			}
			b.ReportMetric(100*gain, "cf2-gain-pct")
		})
	}
}

// BenchmarkFig12bDynamicSlots reports data slots used per cycle with 1
// GPS user, dynamic slot adjustment on vs off (Fig. 12b: the converted
// ninth slot buys up to ~15 % more bandwidth at high load).
func BenchmarkFig12bDynamicSlots(b *testing.B) {
	for _, dynamic := range []bool{true, false} {
		dynamic := dynamic
		b.Run(fmt.Sprintf("dynamic=%v", dynamic), func(b *testing.B) {
			var used float64
			for i := 0; i < b.N; i++ {
				scn := benchScenario(1.0)
				scn.GPSUsers = 1
				scn.DisableDynamicSlots = !dynamic
				res, err := Run(scn)
				if err != nil {
					b.Fatal(err)
				}
				used = res.MeanDataSlotsUsed
			}
			b.ReportMetric(used, "data-slots-used")
		})
	}
}

// BenchmarkRegistrationLatency reports the §2.1 registration targets
// for a burst of 8 simultaneous registrants.
func BenchmarkRegistrationLatency(b *testing.B) {
	var within2, within10 float64
	for i := 0; i < b.N; i++ {
		cfg := core.NewConfig()
		cfg.Seed = benchSeed
		n, err := core.NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for u := 0; u < 8; u++ {
			if _, err := n.AddSubscriber(frame.EIN(100+u), false, 0); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Run(40); err != nil {
			b.Fatal(err)
		}
		within2 = n.Metrics().RegistrationWithin(2)
		within10 = n.Metrics().RegistrationWithin(10)
	}
	b.ReportMetric(within2, "within-2-cycles")
	b.ReportMetric(within10, "within-10-cycles")
}

// BenchmarkGPSAccessDelay reports the worst GPS access delay against the
// §2.1 4-second bound under a fully loaded cell.
func BenchmarkGPSAccessDelay(b *testing.B) {
	var maxDelay, violations float64
	for i := 0; i < b.N; i++ {
		scn := benchScenario(0.9)
		scn.GPSUsers = 8
		res, err := Run(scn)
		if err != nil {
			b.Fatal(err)
		}
		maxDelay = res.GPSMaxAccessDelay
		violations = float64(res.GPSDeadlineViolations)
	}
	b.ReportMetric(maxDelay, "max-delay-s")
	b.ReportMetric(violations, "violations")
}

// BenchmarkBaselineComparison reports overload throughput for OSU-MAC
// and the §4 survey baselines (extension X1).
func BenchmarkBaselineComparison(b *testing.B) {
	b.Run("osu-mac", func(b *testing.B) {
		var thr float64
		for i := 0; i < b.N; i++ {
			scn := benchScenario(1.1)
			scn.GPSUsers = 0
			res, err := Run(scn)
			if err != nil {
				b.Fatal(err)
			}
			thr = res.Utilization
		}
		b.ReportMetric(thr, "throughput")
	})
	for _, mk := range []func() baseline.Protocol{
		func() baseline.Protocol { return baseline.NewPRMA() },
		func() baseline.Protocol { return baseline.NewDTDMA() },
		func() baseline.Protocol { return baseline.NewRAMA() },
		func() baseline.Protocol { return baseline.NewDRMA() },
		func() baseline.Protocol { return baseline.NewFAMA() },
	} {
		name := mk().Name()
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				res, err := baseline.Run(baseline.Config{
					Protocol: mk(),
					Users:    10,
					Frames:   benchCycles,
					Load:     1.1,
					Seed:     benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				thr = res.Throughput
			}
			b.ReportMetric(thr, "throughput")
		})
	}
}

// BenchmarkAblationLumping compares the paper's lumped round-robin to
// the unlumped variant (extension X2).
func BenchmarkAblationLumping(b *testing.B) {
	run := func(b *testing.B, lump bool) {
		var delay float64
		for i := 0; i < b.N; i++ {
			cfg := NewConfig()
			cfg.Seed = benchSeed
			rr := NewRoundRobin()
			rr.Lump = lump
			cfg.Scheduler = rr
			cfg.MeanInterarrival = benchInterarrival(0.9)
			n, err := NewNetwork(cfg)
			if err != nil {
				b.Fatal(err)
			}
			benchPopulate(b, n)
			if err := n.Run(benchCycles); err != nil {
				b.Fatal(err)
			}
			delay = n.Metrics().MeanDelayCycles(CycleLength)
		}
		b.ReportMetric(delay, "delay-cycles")
	}
	b.Run("lump", func(b *testing.B) { run(b, true) })
	b.Run("no-lump", func(b *testing.B) { run(b, false) })
}

// --- Microbenchmarks of the hot substrates -------------------------

// BenchmarkRSEncode measures steady-state RS(64,48) encoding: EncodeTo
// with a reused buffer and a non-zero message (zero bytes would skip
// table work and flatter the number). Expected: 0 allocs/op.
func BenchmarkRSEncode(b *testing.B) {
	code := rs.NewPaperCode()
	msg := make([]byte, code.K())
	for i := range msg {
		msg[i] = byte(i*37 + 11)
	}
	dst := make([]byte, 0, code.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = code.EncodeTo(dst[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSDecodeClean measures the steady-state clean-codeword fast
// path: syndrome check plus copy, DecodeTo into a reused buffer.
// Expected: 0 allocs/op.
func BenchmarkRSDecodeClean(b *testing.B) {
	code := rs.NewPaperCode()
	msg := make([]byte, code.K())
	for i := range msg {
		msg[i] = byte(255 - i*5)
	}
	cw, err := code.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, code.K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = code.DecodeTo(dst[:0], cw)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSDecodeWorstCase measures decode with t=8 errors.
func BenchmarkRSDecodeWorstCase(b *testing.B) {
	code := rs.NewPaperCode()
	rng := sim.NewRNG(1)
	msg := make([]byte, code.K())
	cw, err := code.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	corrupted := append([]byte(nil), cw...)
	for _, p := range rng.Shuffled(len(cw))[:code.T()] {
		corrupted[p] ^= byte(rng.UniformInt(1, 255))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Decode(corrupted); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlFieldCodec measures one full control-field
// encode+decode round (2 RS codewords each way) in its steady-state
// form: EncodeControlFieldsTo into a reused buffer and
// DecodeControlFieldsInto a caller-owned struct. Expected: 0 allocs/op.
func BenchmarkControlFieldCodec(b *testing.B) {
	codec := frame.NewCodec()
	cf := frame.NewControlFields()
	cf.GPSSchedule[0] = 1
	cf.ReverseSchedule[3] = 7
	air := make([]byte, 0, frame.ControlFieldAirBytes)
	var rx frame.ControlFields
	// Warm the RS decoder scratch pool before measuring.
	air, err := codec.EncodeControlFieldsTo(air[:0], cf)
	if err != nil {
		b.Fatal(err)
	}
	if err := codec.DecodeControlFieldsInto(&rx, air); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		air, err = codec.EncodeControlFieldsTo(air[:0], cf)
		if err != nil {
			b.Fatal(err)
		}
		if err := codec.DecodeControlFieldsInto(&rx, air); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationCycle measures full-stack cycles per second for a
// busy cell.
func BenchmarkSimulationCycle(b *testing.B) {
	cfg := NewConfig()
	cfg.Seed = benchSeed
	cfg.MeanInterarrival = benchInterarrival(0.9)
	n, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchPopulate(b, n)
	if err := n.Run(5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlightRecorderOverhead prices the always-on flight recorder
// against a nil tracer on the BenchmarkSimulationCycle workload. The
// nil and recorder sub-benchmarks time each configuration alone; the
// CI bench gate pins their allocs/op to each other (the record path
// must not allocate). paired runs both cells cycle by cycle in one
// loop, so host load drift hits both alike, and reports the record
// path's absolute cost per recorded trace event — the traced cell's
// extra time over the events its ring counted — which CI budgets: the
// structured lazy-detail trace path plus the ring's slot-store record
// path must stay cheap enough to leave on in every run, however fast
// the untraced cycle gets.
func BenchmarkFlightRecorderOverhead(b *testing.B) {
	// busyCell builds the benchmark cell and runs its warm-up.
	busyCell := func(b *testing.B, tracer Tracer) *Network {
		cfg := NewConfig()
		cfg.Seed = benchSeed
		cfg.MeanInterarrival = benchInterarrival(0.9)
		cfg.Tracer = tracer
		n, err := NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchPopulate(b, n)
		if err := n.Run(5); err != nil {
			b.Fatal(err)
		}
		return n
	}
	// newRecorder returns a flight recorder whose anomaly path stays out
	// of the timed region. The busy cell drops stale GPS reports, which
	// count as deadline-violation events, so triggers WILL fire here.
	// The budget prices the per-event record path — what every healthy
	// cycle pays — so pre-fire the trigger during setup and let an
	// effectively infinite cooldown suppress every in-run firing (no
	// ring snapshot, no JSONL dump).
	newRecorder := func(b *testing.B) *flight.Recorder {
		rec := flight.NewRecorder(flight.Options{
			DumpDir: b.TempDir(), Seed: benchSeed,
			CooldownCycles: 1 << 30,
		})
		rec.TriggerNow(flight.TriggerGPSDeadline, 0)
		return rec
	}
	run := func(b *testing.B, n *Network) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := n.Run(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, busyCell(b, nil)) })
	b.Run("recorder", func(b *testing.B) { run(b, busyCell(b, newRecorder(b))) })
	b.Run("paired", func(b *testing.B) {
		// Both cells run the same cycles from the same seed, so the
		// traced half differs from the plain half by its trace events
		// alone. record-ns/event sums the kept iterations' extra time
		// over their recorded events. It prices the fast compiled cycle,
		// the path every healthy ideal-channel cycle takes: a cycle that
		// fell back to the event handlers is left out (tracing costs
		// less per event next to the wire path's RS work, so a mix of
		// the two would move with the fallback rate). So is an
		// iteration whose slower half took more than twice its faster
		// half: an interrupt hit it (tracing adds a few percent).
		plain := busyCell(b, nil)
		rec := newRecorder(b)
		traced := busyCell(b, rec)
		ring := rec.Ring()
		fallbacks := func() uint64 {
			return plain.Metrics().CompiledFallbacks.Value() + traced.Metrics().CompiledFallbacks.Value()
		}
		start := ring.Recorded()
		var extra time.Duration
		var kept uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e0, f0 := ring.Recorded(), fallbacks()
			t0 := time.Now()
			if err := plain.Run(1); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			if err := traced.Run(1); err != nil {
				b.Fatal(err)
			}
			t2 := time.Now()
			p, t := t1.Sub(t0), t2.Sub(t1)
			if fallbacks() == f0 && max(p, t) <= 2*min(p, t) {
				extra += t - p
				kept += ring.Recorded() - e0
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ring.Recorded()-start)/float64(b.N), "events/op")
		if kept > 0 {
			b.ReportMetric(float64(extra)/float64(kept), "record-ns/event")
		}
	})
}

// BenchmarkBaselineTraceOverhead prices baseline trace emission: a
// PRMA run with tracing off (the nil-tracer gated fast path) against
// the identical run feeding a ring tracer. Two CI gates hang off it.
// The benchdiff baseline (BENCH_3.json) pins the nil run's ns/op and
// allocs/op, so instrumentation never taxes tracing-off runs — the
// ≤5% nil-tracer overhead contract. The budget step then requires the
// ring run's allocs/op to equal the nil run's exactly (emission must
// not allocate) and bounds the ring/nil ns ratio. The abstract frame
// model simulates a frame in well under a microsecond while emitting
// ~18 events, so the ring's ~30ns/event store reads as a large
// relative cost here by construction; the ratio budget guards the
// per-event price against regression rather than claiming tracing is
// free on a workload this small.
func BenchmarkBaselineTraceOverhead(b *testing.B) {
	run := func(b *testing.B, tracer core.Tracer) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Run(baseline.Config{
				Protocol: baseline.NewPRMA(),
				Users:    12,
				Frames:   100,
				Load:     0.7,
				Seed:     benchSeed,
				Tracer:   tracer,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("ring", func(b *testing.B) { run(b, core.NewRing(1<<14)) })
}

// BenchmarkCompiledCycle measures the compiled executor's idle-cell
// steady state: active data users, no queued traffic, no GPS. Every
// cycle activates fast and every slot action is a table dispatch, so
// this is the pure executor cost. Expected: 0 allocs/op after the
// pre-scheduled chunk amortizes.
func BenchmarkCompiledCycle(b *testing.B) {
	cfg := NewConfig()
	cfg.Seed = benchSeed
	n, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := n.AddSubscriber(EIN(2000+i), false, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := n.Run(5); err != nil {
		b.Fatal(err)
	}
	s := n.Sim()
	start := s.Now()
	scheduled := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i == scheduled {
			// Schedule cycle-begin events in chunks off the clock; the
			// measured region is pure kernel + compiled-table execution.
			b.StopTimer()
			chunk := b.N - scheduled
			if chunk > 1<<14 {
				chunk = 1 << 14
			}
			if err := n.ScheduleCycles(chunk, start+time.Duration(scheduled)*CycleLength); err != nil {
				b.Fatal(err)
			}
			scheduled += chunk
			b.StartTimer()
		}
		if err := s.Run(start + time.Duration(i+1)*CycleLength); err != nil {
			b.Fatal(err)
		}
	}
}

func benchInterarrival(load float64) time.Duration {
	return InterarrivalForLoad(load, 10, 4, true)
}

func benchPopulate(tb testing.TB, n *Network) {
	tb.Helper()
	for i := 0; i < 4; i++ {
		if _, err := n.AddSubscriber(EIN(1000+i), true, 0); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := n.AddSubscriber(EIN(2000+i), false, 0); err != nil {
			tb.Fatal(err)
		}
	}
}
