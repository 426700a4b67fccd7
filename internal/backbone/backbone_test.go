package backbone

import (
	"runtime"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/phy"
)

func newInternet(t *testing.T, cells int) *Internet {
	t.Helper()
	cfg := core.NewConfig()
	cfg.Seed = 5
	in, err := New(cfg, cells, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewValidation(t *testing.T) {
	cfg := core.NewConfig()
	if _, err := New(cfg, 0, time.Millisecond); err == nil {
		t.Fatal("zero cells accepted")
	}
	if _, err := New(cfg, 2, 0); err == nil {
		t.Fatal("zero wire delay accepted")
	}
}

func TestInterCellDelivery(t *testing.T) {
	in := newInternet(t, 2)
	a, err := in.AddSubscriber(100, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.AddSubscriber(200, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Let both register.
	if err := in.Run(4); err != nil {
		t.Fatal(err)
	}
	if a.State() != core.StateActive || b.State() != core.StateActive {
		t.Fatalf("states %v / %v", a.State(), b.State())
	}

	// A (cell 0) sends 200 bytes to B (cell 1).
	if err := in.Send(100, 200, 200); err != nil {
		t.Fatal(err)
	}
	if err := in.Run(12); err != nil {
		t.Fatal(err)
	}

	if in.Forwarded.Value() != 1 {
		t.Fatalf("forwarded = %d", in.Forwarded.Value())
	}
	if in.Delivered.Value() != 1 {
		t.Fatalf("delivered = %d", in.Delivered.Value())
	}
	// The uplink leg was counted by cell 0's metrics.
	if in.Cell(0).Metrics().MessagesDelivered.Value() != 1 {
		t.Fatal("uplink leg not counted")
	}
	// The downlink leg flowed through cell 1's forward channel.
	m1 := in.Cell(1).Metrics()
	if m1.ForwardPktsDelivered.Value() == 0 {
		t.Fatal("downlink leg never transmitted")
	}
	if m1.ForwardPktsDelivered.Value() != m1.ForwardPktsSent.Value() {
		t.Fatal("downlink lost packets on ideal channel")
	}
	if in.EndToEndLat.Count() != 1 || in.EndToEndLat.Mean() <= 0 {
		t.Fatal("end-to-end latency not recorded")
	}
}

func TestIntraCellTrafficNotRouted(t *testing.T) {
	in := newInternet(t, 2)
	if _, err := in.AddSubscriber(100, 0, false, 0); err != nil {
		t.Fatal(err)
	}
	// Native Poisson traffic in a cell must not confuse the router.
	if err := in.Run(10); err != nil {
		t.Fatal(err)
	}
	if in.Forwarded.Value() != 0 {
		t.Fatal("router forwarded traffic nobody sent")
	}
}

func TestSendValidation(t *testing.T) {
	in := newInternet(t, 2)
	if _, err := in.AddSubscriber(100, 0, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := in.Send(100, 999, 50); err == nil {
		t.Fatal("unknown destination accepted")
	}
	if err := in.Send(999, 100, 50); err == nil {
		t.Fatal("unknown source accepted")
	}
	// Source not yet active.
	if err := in.Send(100, 100, 50); err == nil {
		t.Fatal("inactive source accepted")
	}
}

func TestAddSubscriberValidation(t *testing.T) {
	in := newInternet(t, 2)
	if _, err := in.AddSubscriber(100, 5, false, 0); err == nil {
		t.Fatal("bad cell index accepted")
	}
	if _, err := in.AddSubscriber(100, 0, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := in.AddSubscriber(100, 1, false, 0); err == nil {
		t.Fatal("duplicate EIN across cells accepted")
	}
}

func TestCellsShareOneClock(t *testing.T) {
	in := newInternet(t, 3)
	if err := in.Run(5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < in.Cells(); i++ {
		if got := in.Cell(i).Cycle(); got != 5 {
			t.Fatalf("cell %d ran %d cycles", i, got)
		}
	}
	for i := 0; i < in.Cells(); i++ {
		if got := in.Cell(i).Sim().Now(); got != in.Now() || got <= 0 {
			t.Fatalf("cell %d clock %v, deployment clock %v", i, got, in.Now())
		}
	}
}

func TestManyFlowsBothDirections(t *testing.T) {
	in := newInternet(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := in.AddSubscriber(Address(100+i), 0, false, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := in.AddSubscriber(Address(200+i), 1, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Run(6); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for i := 0; i < 3; i++ {
		if err := in.Send(Address(100+i), Address(200+i), 120); err == nil {
			sent++
		}
		if err := in.Send(Address(200+i), Address(100+i), 90); err == nil {
			sent++
		}
	}
	if sent == 0 {
		t.Fatal("no flows started")
	}
	if err := in.Run(25); err != nil {
		t.Fatal(err)
	}
	if int(in.Delivered.Value()) != sent {
		t.Fatalf("delivered %d of %d inter-cell messages", in.Delivered.Value(), sent)
	}
}

func TestRunValidation(t *testing.T) {
	in := newInternet(t, 1)
	if err := in.Run(0); err == nil {
		t.Fatal("zero cycles accepted")
	}
}

// goroutineProbe is a cell tracer that records the most goroutines
// alive while its cell ran.
type goroutineProbe struct{ peak int }

func (p *goroutineProbe) Trace(core.TraceEvent) {
	p.peak = max(p.peak, runtime.NumGoroutine())
}

// TestWorkerPoolBoundsGoroutines: a run holds the test's two goroutines
// plus at most one per GOMAXPROCS worker, never one per cell.
func TestWorkerPoolBoundsGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const cells = 256
	probes := make([]goroutineProbe, cells)
	in, err := NewWithOptions(core.NewConfig(), Options{
		Cells:      cells,
		WireDelay:  phy.CycleLength,
		CellTracer: func(cell int) core.Tracer { return &probes[cell] },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(2); err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i := range probes {
		if probes[i].peak == 0 {
			t.Fatalf("cell %d traced nothing; the probe proved nothing", i)
		}
		peak = max(peak, probes[i].peak)
	}
	if limit := runtime.GOMAXPROCS(0) + 2; peak > limit {
		t.Fatalf("%d-cell run held %d goroutines, want at most GOMAXPROCS+2 = %d", cells, peak, limit)
	}
}
