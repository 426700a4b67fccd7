package osumac

// Differential tests of the compiled-cycle executor. Every cycle plays
// off its slot table; DisableCompiledCycle runs every action of that
// table through the wire handlers (encode, channel, decode), which is
// the reference the fast path is compared with here. For every fallback
// trigger (lossy channel, CF2 amendment, reverse format switch) the
// compiled run must deactivate its fast path — counted on the matching
// reason counter — and still produce a trace stream and metric snapshot
// identical to the wire-handler run; contention slots (registration,
// data-in-contention, collisions) must stay on the fast path with the
// same equivalence. The compiled run is additionally verified by the
// protocol-invariant checker. The table's firing order itself is
// checked against per-slot heap events in internal/core.

import (
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/core"
)

// twinRun executes the same scenario on the fast path and on the wire
// handlers and fails the test on any observable divergence. It returns the compiled run's
// metrics for the caller's fallback-counter assertions.
func twinRun(t *testing.T, scn Scenario) *Metrics {
	t.Helper()
	m, _ := twinRunWith(t, scn, nil)
	return m
}

// twinRunWith is twinRun with a population hook: join, when non-nil,
// runs on each engine's network after Build and before the first cycle,
// for joins a Scenario cannot express. It also returns the compiled
// run's trace.
func twinRunWith(t *testing.T, scn Scenario, join func(*Network) error) (*Metrics, []TraceEvent) {
	t.Helper()

	compiledBuf := &TraceBuffer{Cap: 1 << 20}
	wireBuf := &TraceBuffer{Cap: 1 << 20}

	compiledScn := scn
	compiledScn.Tracer = compiledBuf
	wireScn := scn
	wireScn.Tracer = wireBuf
	wireScn.DisableCompiledCycle = true

	nc, chk, err := BuildChecked(compiledScn)
	if err != nil {
		t.Fatal(err)
	}
	if join != nil {
		if err := join(nc); err != nil {
			t.Fatal(err)
		}
	}
	if err := nc.Run(scn.WarmupCycles + scn.Cycles); err != nil {
		t.Fatal(err)
	}
	if rep := chk.Finish(); !rep.OK() {
		t.Fatalf("compiled run breaches protocol invariants: %v", rep.Violations)
	}

	ne, err := Build(wireScn)
	if err != nil {
		t.Fatal(err)
	}
	if join != nil {
		if err := join(ne); err != nil {
			t.Fatal(err)
		}
	}
	if err := ne.Run(scn.WarmupCycles + scn.Cycles); err != nil {
		t.Fatal(err)
	}

	if compiledBuf.Dropped() > 0 || wireBuf.Dropped() > 0 {
		t.Fatalf("trace buffers overflowed (compiled dropped %d, wire %d): raise Cap",
			compiledBuf.Dropped(), wireBuf.Dropped())
	}
	ce, ee := compiledBuf.Events(), wireBuf.Events()
	if len(ce) != len(ee) {
		t.Fatalf("trace length diverges: compiled %d events, wire handlers %d", len(ce), len(ee))
	}
	for i := range ce {
		if ce[i] != ee[i] {
			t.Fatalf("trace diverges at event %d:\n  compiled: %v\n  wire:     %v", i, ce[i], ee[i])
		}
	}

	cs, es := nc.Metrics().Snapshot(), ne.Metrics().Snapshot()
	if cs != es {
		t.Fatalf("metric snapshots diverge:\n  compiled: %+v\n  wire:     %+v", cs, es)
	}
	if cf, ef := nc.Sim().EventsFired(), ne.Sim().EventsFired(); cf != ef {
		t.Fatalf("kernel actions diverge: compiled fired %d, wire handlers %d", cf, ef)
	}
	return nc.Metrics(), ce
}

func TestCompiledFallbackTriggers(t *testing.T) {
	cases := []struct {
		name string
		scn  Scenario
		// counter extracts the case's expected fallback-reason count.
		counter func(*Metrics) uint64
		// midCycle marks reasons detected after a fast activation (at
		// CF1/CF2 delivery), which therefore imply a mid-cycle
		// deactivation rather than an activation-time one.
		midCycle bool
	}{
		{
			// A lossy reverse channel is known at activation: every
			// cycle runs slow from the start.
			name: "loss",
			scn: Scenario{
				Seed: 3, GPSUsers: 2, DataUsers: 6, Load: 0.6,
				VariableSizes: true, Cycles: 25, WarmupCycles: 5,
				ReverseLoss: 0.08,
			},
			counter: func(m *Metrics) uint64 { return m.CompiledFallbackLoss.Value() },
		},
		{
			// GPS users admitted after a cycle's CF1 get their slot
			// granted by CF2 amendment; the amendment is only detected
			// when CF2 is built, mid-cycle.
			name: "amendment",
			scn: Scenario{
				Seed: 5, GPSUsers: 8, DataUsers: 8, Load: 0.8,
				VariableSizes: true, Cycles: 30, WarmupCycles: 0,
			},
			counter:  func(m *Metrics) uint64 { return m.CompiledFallbackAmendment.Value() },
			midCycle: true,
		},
		{
			// Staggered GPS registrations cross the >3 active-user
			// boundary, switching format 2 → 1; the switch cycle runs
			// slow and recompiles against the other template.
			name: "format-switch",
			scn: Scenario{
				Seed: 5, GPSUsers: 6, DataUsers: 4, Load: 0.4,
				VariableSizes: true, Cycles: 20, WarmupCycles: 0,
			},
			counter: func(m *Metrics) uint64 { return m.CompiledFallbackFormat.Value() },
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := twinRun(t, tc.scn)
			if m.CompiledCycles.Value() == 0 {
				t.Fatal("compiled executor never activated")
			}
			if got := tc.counter(m); got == 0 {
				t.Fatalf("fallback reason %q never triggered (compiled cycles %d, total fallbacks %d)",
					tc.name, m.CompiledCycles.Value(), m.CompiledFallbacks.Value())
			}
			if m.CompiledFallbacks.Value() == 0 {
				t.Fatal("reason counted but no cycle deactivated")
			}
			if tc.midCycle && m.CompiledFallbacks.Value() == m.CompiledCycles.Value() &&
				m.CompiledFallbackLoss.Value() == 0 && m.CompiledFallbackFormat.Value() == 0 {
				// Mid-cycle reasons must leave at least one cycle fully
				// fast once the trigger subsides; a permanently slow run
				// means the trigger never actually cleared.
				t.Fatalf("every cycle fell back (%d of %d): mid-cycle trigger never subsided",
					m.CompiledFallbacks.Value(), m.CompiledCycles.Value())
			}
		})
	}
}

// TestCompiledContentionStaysFast pins contention slots to the fast
// path: registrations, data-in-contention and collisions run on fast
// compiled cycles with traces, snapshots and kernel action counts equal
// to the wire handlers'. No case has GPS users, so no cycle can switch
// format or take a CF2 amendment, and the channel is ideal: every cycle
// must stay fast.
func TestCompiledContentionStaysFast(t *testing.T) {
	// burst joins 24 data users at t = 0 on top of the scenario's own:
	// their first registrations all land in the same few contention
	// slots.
	burst := func(n *Network) error {
		for i := 0; i < 24; i++ {
			if _, err := n.AddSubscriber(EIN(3000+i), false, 0); err != nil {
				return err
			}
		}
		return nil
	}
	cases := []struct {
		name string
		scn  Scenario
		join func(*Network) error
		// kind is the contention packet type the trace must show.
		kind string
		// collide requires at least one contention collision.
		collide bool
	}{
		{
			// Staggered joins register through contention slots.
			name: "registration",
			scn: Scenario{
				Seed: 1, GPSUsers: 0, DataUsers: 8, Load: 0.5,
				VariableSizes: true, Cycles: 20, WarmupCycles: 0,
			},
			kind: "registration",
		},
		{
			// A busy cell: users without a grant send their first queued
			// fragment in a contention slot (the default policy).
			name: "data-in-contention",
			scn: Scenario{
				Seed: 3, GPSUsers: 0, DataUsers: 10, Load: 0.9,
				VariableSizes: true, Cycles: 40, WarmupCycles: 5,
			},
			kind: "data",
		},
		{
			name: "registration-burst",
			scn: Scenario{
				Seed: 2, GPSUsers: 0, DataUsers: 2, Load: 0.6,
				VariableSizes: true, Cycles: 30, WarmupCycles: 0,
			},
			join:    burst,
			kind:    "registration",
			collide: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, trace := twinRunWith(t, tc.scn, tc.join)
			if m.CompiledCycles.Value() == 0 {
				t.Fatal("compiled executor never activated")
			}
			if m.ContentionTx.Value() == 0 {
				t.Fatal("no contention transmission: the case does not exercise contention slots")
			}
			if got := m.CompiledFallbackContention.Value(); got != 0 {
				t.Fatalf("CompiledFallbackContention = %d, want 0", got)
			}
			if got := m.CompiledFallbacks.Value(); got != 0 {
				t.Fatalf("%d of %d compiled cycles fell back, want none", got, m.CompiledCycles.Value())
			}
			if tc.collide && m.ContentionCollisions.Value() == 0 {
				t.Fatal("no contention collision")
			}
			kinds := 0
			for _, e := range trace {
				if e.Kind == core.EventContentionTx && e.Detail == tc.kind {
					kinds++
				}
			}
			if kinds == 0 {
				t.Fatalf("no %s contention transmission in the trace", tc.kind)
			}
		})
	}
}

// TestCompiledFormatSwitchRecompiles pins the cache-invalidation
// contract: a reverse-format switch recompiles (reuses the other
// cached template) and runs the switch cycle slow.
func TestCompiledFormatSwitchRecompiles(t *testing.T) {
	m := twinRun(t, Scenario{
		Seed: 5, GPSUsers: 6, DataUsers: 4, Load: 0.4,
		VariableSizes: true, Cycles: 20, WarmupCycles: 0,
	})
	if m.CompiledRecompiles.Value() == 0 {
		t.Fatal("format switch did not recompile")
	}
	if m.CompiledRecompiles.Value() != m.CompiledFallbackFormat.Value() {
		t.Fatalf("recompiles (%d) != format fallbacks (%d): every switch cycle must run slow",
			m.CompiledRecompiles.Value(), m.CompiledFallbackFormat.Value())
	}
}

// FuzzCompiledCycle is the differential fuzz target: the fuzzer
// explores scenario configurations and for every one the fast path and
// the wire handlers must emit byte-identical trace streams, equal
// metric snapshots, and equal kernel action counts, with the compiled
// run passing the protocol-invariant checker.
func FuzzCompiledCycle(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(4), uint8(5), uint8(0))
	f.Add(uint64(5), uint8(8), uint8(8), uint8(8), uint8(0))
	f.Add(uint64(3), uint8(2), uint8(6), uint8(6), uint8(1))
	f.Add(uint64(42), uint8(0), uint8(1), uint8(0), uint8(2))
	// Twelve data users (data users join 500 ms apart, so eight register
	// in the first cycle): contention-slot collisions and backoff on the
	// fast path, with and without GPS users and traffic.
	f.Add(uint64(7), uint8(0), uint8(11), uint8(9), uint8(0))
	f.Add(uint64(8), uint8(0), uint8(11), uint8(12), uint8(0))
	f.Add(uint64(11), uint8(8), uint8(11), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, gpsRaw, dataRaw, loadRaw, lossRaw uint8) {
		scn := Scenario{
			Seed:          seed,
			GPSUsers:      int(gpsRaw % 9),          // 0..8
			DataUsers:     int(dataRaw%12) + 1,      // 1..12
			Load:          float64(loadRaw%13) / 10, // 0.0..1.2
			VariableSizes: seed%2 == 0,
			Cycles:        8,
			WarmupCycles:  2,
			ReverseLoss:   float64(lossRaw%3) * 0.08, // 0, 0.08, 0.16
		}
		twinRun(t, scn)
	})
}

// TestCompiledCycleZeroAlloc pins the tentpole's steady-state
// allocation contract: an idle cell (active data users, no queued
// traffic, no GPS) runs entire compiled cycles without a single heap
// allocation. Templates compile lazily and registration rides
// contention, so the cell warms up first.
func TestCompiledCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := NewConfig()
	cfg.Seed = 1
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := n.AddSubscriber(EIN(2000+i), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Settle registration and warm the template cache and kernel heap.
	if err := n.Run(5); err != nil {
		t.Fatal(err)
	}

	const rounds = 50
	sim := n.Sim()
	start := sim.Now()
	// Pre-schedule every measured cycle in one shot: the cell's action
	// source holds the run of cycle starts, so nothing is queued per
	// cycle.
	if err := n.ScheduleCycles(rounds+2, start); err != nil {
		t.Fatal(err)
	}
	step := 0
	allocs := testing.AllocsPerRun(rounds, func() {
		step++
		if err := sim.Run(start + time.Duration(step)*CycleLength); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("idle compiled cycle: %v allocs/op, want 0", allocs)
	}
	m := n.Metrics()
	if m.CompiledCycles.Value() == 0 {
		t.Fatal("compiled executor never activated")
	}
	if fb, cc := m.CompiledFallbacks.Value(), m.CompiledCycles.Value(); fb >= cc {
		t.Fatalf("idle steady state fell back (%d of %d cycles)", fb, cc)
	}
}

// TestSimulationCycleAllocs pins what one steady-state cycle of the busy
// cell that BenchmarkSimulationCycle times allocates: nothing. Kernel
// events, scheduler tables, queued fragments, reassembly state and
// received packets are all values or reused scratch, and ScheduleCycles
// records a run of cycle starts in the cell's action source (its run
// list keeps its storage) instead of queuing a closure per cycle. The
// cell settles for 50 cycles first: its start-up transient — GPS
// admissions, the first format switch (the first cycle to use the wire
// path's scratch buffers), queues, samples and maps growing to their
// working sizes — allocates about 90 times in cycles 6–55 and a
// handful of times per 50 cycles after that.
func TestSimulationCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := NewConfig()
	cfg.Seed = benchSeed
	cfg.MeanInterarrival = benchInterarrival(0.9)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	benchPopulate(t, n)
	if err := n.Run(50); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := n.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("busy cell: %v allocs per cycle, want 0", allocs)
	}
}

// TestCompiledDisabledRunsWireHandlers verifies the escape hatch: with
// the toggle set, every cycle runs on the wire handlers and no compiled
// cycle is counted.
func TestCompiledDisabledRunsWireHandlers(t *testing.T) {
	scn := NewScenario()
	scn.Cycles, scn.WarmupCycles = 10, 0
	scn.DisableCompiledCycle = true
	n, err := Build(scn)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := n.Metrics().CompiledCycles.Value(); got != 0 {
		t.Fatalf("DisableCompiledCycle: %d compiled cycles, want 0", got)
	}
}
