// Package backbone implements the wired point-to-point network that
// interconnects base stations (paper §2.2: "The base station … is
// connected to one another to form a wired point-to-point backbone
// network. … The base station receives data packets from all mobile
// subscribers and forwards them to their destinations.").
//
// The backbone delivers an uplink message completed at one base station
// to the destination subscriber's base station after a wired
// propagation+queueing delay, where it is fragmented again for downlink
// transmission.
//
// # Execution
//
// Every cell runs on its own sim.Simulator kernel. A coordinator
// advances all kernels in conservative-lookahead windows derived from
// WireDelay, on a pool of GOMAXPROCS worker goroutines (see shard.go).
// Cross-cell sends are exchanged at the barriers between windows and
// merged in the fixed total order (delivery time, source cell,
// per-source sequence) (see exchange.go).
//
// Same-seed runs are byte-identical — identical per-cell metrics,
// merged trace streams, backbone counters and latency samples — at any
// GOMAXPROCS. The twin test battery in twin_test.go and
// FuzzShardExchange enforce this against a test-only oracle that runs
// every cell on one shared kernel (oracle_test.go).
package backbone

import (
	"fmt"
	"time"

	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
	"github.com/osu-netlab/osumac/internal/stats"
)

// Address identifies a subscriber globally: the EIN is universally
// unique (paper §3.1), so it doubles as the routing key. Only
// subscribers added through Internet.AddSubscriber occupy the global
// address space; cells may additionally hold local-only subscribers
// (added via Cell(i).AddSubscriber) whose EINs need only be unique
// within their cell — metro-scale deployments rely on this split, since
// the 16-bit EIN space is smaller than a metro's subscriber population.
type Address = frame.EIN

// Options configures a multi-cell deployment.
type Options struct {
	// Cells is the number of OSU-MAC cells (≥1). Cell i runs with
	// Config.Seed+i so cells are statistically independent.
	Cells int
	// WireDelay is the one-way backbone latency between any two base
	// stations (point-to-point mesh). It must be positive: it is the
	// conservative-lookahead bound that guarantees a cross-cell send
	// generated inside a window delivers at or after the window's end
	// barrier.
	WireDelay time.Duration
	// Deprecated: Sharded has no effect; every deployment runs one kernel per cell.
	Sharded bool
	// Lookahead is the barrier window length. Zero means WireDelay
	// (the maximum safe window); any explicit value must lie in
	// (0, WireDelay]. Smaller windows trade barrier overhead for lower
	// peak skew between cells; every legal value produces
	// byte-identical results.
	Lookahead time.Duration
	// CellTracer, when set, builds a per-cell tracer chain: cell i's
	// events are delivered inline (in cell-local order) to
	// CellTracer(i). This is the seam for per-cell conformance
	// checkers — each cell gets its own checker. A nil return detaches
	// cell i.
	CellTracer func(cell int) core.Tracer
}

// Internet is a set of OSU-MAC cells joined by a wired backbone.
type Internet struct {
	shards []*shard   // one per cell, in cell order
	taps   []*cellTap // per-cell trace taps (entries may be nil)
	sink   core.Tracer

	// WireDelay is the one-way backbone latency between any two base
	// stations (point-to-point mesh).
	WireDelay time.Duration
	lookahead time.Duration
	committed time.Duration // virtual time of the last barrier

	// routing: EIN → cell index.
	home map[Address]int
	subs map[Address]*core.Subscriber

	// latQ holds exchanged sends whose end-to-end latency sample is
	// applied once a barrier commits their delivery time, in the
	// canonical (deliverAt, src, seq) order: stats.Sample's float
	// accumulation is order-sensitive.
	latQ []xsend

	// Metrics.
	Forwarded   stats.Counter
	Delivered   stats.Counter
	EndToEndLat stats.Sample // seconds, uplink arrival → downlink enqueue
}

type pendingKey struct {
	user  frame.UserID
	msgID uint16
}

type pendingSend struct {
	dst       Address
	createdAt time.Duration
}

// New builds an Internet of `cells` OSU-MAC cells. Cell i uses cfg with
// Seed+i so cells are statistically independent.
func New(cfg core.Config, cells int, wireDelay time.Duration) (*Internet, error) {
	return NewWithOptions(cfg, Options{Cells: cells, WireDelay: wireDelay})
}

// NewWithOptions builds an Internet with full control over the barrier
// window and per-cell tracing. The shared tracer cfg.Tracer, when set,
// receives the merged multi-cell event stream in (time, cell, per-cell
// sequence) order, flushed at every barrier. Per-cell consumers
// (conformance checkers) should use Options.CellTracer instead, which
// delivers events inline.
func NewWithOptions(cfg core.Config, o Options) (*Internet, error) {
	return build(cfg, o, sim.New)
}

// build constructs a deployment whose cells run on kernels returned by
// newKernel, one call per cell. NewWithOptions passes sim.New; the
// test-only shared-kernel oracle passes one kernel for every cell.
func build(cfg core.Config, o Options, newKernel func() *sim.Simulator) (*Internet, error) {
	if o.Cells <= 0 {
		return nil, fmt.Errorf("backbone: need at least one cell")
	}
	if o.WireDelay <= 0 {
		return nil, fmt.Errorf("backbone: WireDelay must be positive (it is the conservative-lookahead bound)")
	}
	if o.Lookahead == 0 {
		o.Lookahead = o.WireDelay
	}
	if o.Lookahead < 0 || o.Lookahead > o.WireDelay {
		return nil, fmt.Errorf("backbone: lookahead %v outside (0, WireDelay=%v]", o.Lookahead, o.WireDelay)
	}
	in := &Internet{
		WireDelay: o.WireDelay,
		lookahead: o.Lookahead,
		sink:      cfg.Tracer,
		home:      make(map[Address]int),
		subs:      make(map[Address]*core.Subscriber),
		taps:      make([]*cellTap, o.Cells),
	}
	for i := 0; i < o.Cells; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		var next core.Tracer
		if o.CellTracer != nil {
			next = o.CellTracer(i)
		}
		c.Tracer = nil
		if in.sink != nil || next != nil {
			tap := &cellTap{next: next, capture: in.sink != nil}
			in.taps[i] = tap
			c.Tracer = tap
		}
		s := &shard{idx: i, kernel: newKernel(), in: in, pending: make(map[pendingKey]pendingSend)}
		n, err := core.NewNetworkOnSim(c, s.kernel)
		if err != nil {
			return nil, err
		}
		n.OnUplinkComplete = s.onUplink
		s.cell = n
		in.shards = append(in.shards, s)
	}
	return in, nil
}

// Cell returns cell i's network.
func (in *Internet) Cell(i int) *core.Network { return in.shards[i].cell }

// Cells returns the number of cells.
func (in *Internet) Cells() int { return len(in.shards) }

// Now returns the deployment's committed virtual time, the last
// barrier. Between Run calls every cell's clock equals this value.
func (in *Internet) Now() time.Duration { return in.committed }

// AddSubscriber places a subscriber in cell `cell`; the EIN is the
// global address.
func (in *Internet) AddSubscriber(ein Address, cell int, isGPS bool, joinAt time.Duration) (*core.Subscriber, error) {
	if cell < 0 || cell >= len(in.shards) {
		return nil, fmt.Errorf("backbone: cell %d out of range", cell)
	}
	if _, dup := in.home[ein]; dup {
		return nil, fmt.Errorf("backbone: duplicate EIN %d", ein)
	}
	sub, err := in.shards[cell].cell.AddSubscriber(ein, isGPS, joinAt)
	if err != nil {
		return nil, err
	}
	in.home[ein] = cell
	in.subs[ein] = sub
	return sub, nil
}

// Subscriber returns the globally-addressed subscriber, or nil if the
// address was never registered through AddSubscriber.
func (in *Internet) Subscriber(ein Address) *core.Subscriber { return in.subs[ein] }

// Send queues an inter-cell message: src's next uplink message carries
// it to its base station, the backbone forwards it, and the destination
// base station schedules it downlink. The source subscriber must be
// active. Send is a between-runs operation: call it only while Run is
// not executing.
func (in *Internet) Send(src, dst Address, size int) error {
	srcCell, ok := in.home[src]
	if !ok {
		return fmt.Errorf("backbone: unknown source %d", src)
	}
	if _, ok := in.home[dst]; !ok {
		return fmt.Errorf("backbone: unknown destination %d", dst)
	}
	sub := in.subs[src]
	if sub.State() != core.StateActive {
		return fmt.Errorf("backbone: source %d not active", src)
	}
	// Enqueue the uplink message; its msgID is the subscriber's next
	// sequence number, which AddMessage assigns in order. Track it so
	// the uplink-completion hook can route it.
	msgID := sub.NextMsgID()
	now := in.Now()
	if !sub.AddMessage(size, now) {
		return fmt.Errorf("backbone: source %d queue full", src)
	}
	s := in.shards[srcCell]
	s.cell.TrackMessage(sub.ID(), msgID, size, now)
	s.pending[pendingKey{user: sub.ID(), msgID: msgID}] = pendingSend{
		dst:       dst,
		createdAt: now,
	}
	return nil
}

// horizonFor computes the run horizon: the cycles' span plus the
// runway for the final cycle's reverse slots to land.
func horizonFor(start time.Duration, cycles int) time.Duration {
	return start + time.Duration(cycles)*phy.CycleLength + phy.ReverseShift
}
