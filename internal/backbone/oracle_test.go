package backbone

// The shared-kernel oracle: every cell of a deployment on one
// sim.Simulator, the single-kernel design the rest of the repo's
// determinism discipline is proven against. The twin battery,
// FuzzShardExchange and the CellError tests compare the production
// engine with it.
//
// The oracle is built by the production constructor (same cells, taps,
// routing tables and delivery code) and replaces only the engine. No
// barriers: one kernel.Run covers the whole run. No exchange: a
// forwarded send is booked at once into a bucket for its delivery
// instant, and one PriorityBackbone event per instant drains the
// bucket in (source cell, sequence) order. PriorityBackbone sorts after
// every local event at the same instant, so a delivery's position
// never depends on the kernel-sequence interleaving of unrelated cells
// — the one part of the shared-kernel order a per-cell-kernel run
// could not reproduce. For the same reason the shared tracer still goes
// through the per-cell taps and their sorted merge, flushed at the end
// of Run: a shared kernel interleaves same-instant events of different
// cells by kernel sequence.

import (
	"fmt"
	"time"

	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/sim"
)

// oracle is a deployment on one shared kernel. Drive it with its own
// Run; the embedded Internet serves everything else (Send, cells,
// counters).
type oracle struct {
	*Internet
	kernel  *sim.Simulator
	buckets map[time.Duration][]xsend
}

// newOracle builds the shared-kernel twin of NewWithOptions(cfg, o).
func newOracle(cfg core.Config, o Options) (*oracle, error) {
	kernel := sim.New()
	in, err := build(cfg, o, func() *sim.Simulator { return kernel })
	if err != nil {
		return nil, err
	}
	or := &oracle{Internet: in, kernel: kernel, buckets: make(map[time.Duration][]xsend)}
	for _, s := range in.shards {
		s := s
		s.cell.OnUplinkComplete = func(user frame.UserID, msgID uint16, bytes int) {
			s.onUplink(user, msgID, bytes)
			for _, x := range s.outbox {
				or.enqueue(x)
			}
			s.outbox = s.outbox[:0]
		}
	}
	return or, nil
}

// Run drives every cell on the shared kernel to the horizon the
// production engine's final barrier reaches.
func (or *oracle) Run(cycles int) error {
	if cycles <= 0 {
		return fmt.Errorf("backbone: non-positive cycle count")
	}
	start := or.kernel.Now()
	for _, s := range or.shards {
		if err := s.cell.ScheduleCycles(cycles, start); err != nil {
			return err
		}
	}
	kerr := or.kernel.Run(horizonFor(start, cycles))
	or.committed = or.kernel.Now()
	or.syncCounters()
	if kerr != nil {
		err := or.failure(kerr)
		or.flushTraces()
		return err
	}
	for _, s := range or.shards {
		s.cell.FlushSeries()
	}
	or.flushTraces()
	return nil
}

// failure wraps a mid-flight kernel stop in a *CellError naming the
// failed cell. At most one cell can fail on the shared kernel: the
// failing event stops the loop before any other cell runs.
func (or *oracle) failure(kerr error) error {
	for _, s := range or.shards {
		if err := s.cell.Err(); err != nil {
			return &CellError{Cell: s.idx, At: or.kernel.Now(), Err: err}
		}
	}
	return kerr
}

// enqueue books an xsend for delivery on the shared kernel. The first
// xsend of a delivery instant schedules that instant's drain event;
// later arrivals (same instant, any source cell) join the bucket before
// it fires, because deliverAt is always a full WireDelay in the future.
func (or *oracle) enqueue(x xsend) {
	b, scheduled := or.buckets[x.deliverAt]
	or.buckets[x.deliverAt] = append(b, x)
	if scheduled {
		return
	}
	at := x.deliverAt
	if err := or.kernel.At(at, sim.PriorityBackbone, func() { or.drain(at) }); err != nil {
		panic(err) // unreachable: deliverAt = now+WireDelay > now
	}
}

// drain delivers every xsend due at `at`, in (src, seq) order.
func (or *oracle) drain(at time.Duration) {
	batch := or.buckets[at]
	delete(or.buckets, at)
	sortXsends(batch)
	for _, x := range batch {
		or.EndToEndLat.AddDuration(x.latency)
		or.shards[x.dst].execDeliver(x)
	}
}
