// The multi-cell engine: one kernel shard per cell, advanced in
// conservative-lookahead windows by a pool of worker goroutines.
//
// # Barrier protocol
//
// A run from committed time T to horizon H proceeds in windows of
// length L = Options.Lookahead (L ≤ WireDelay):
//
//	w = T
//	while w < H:  every shard RunBefore(min(w+L, H)); barrier; exchange
//	finally:      every shard Run(H) (inclusive);      barrier; exchange
//
// Inside a window a shard executes only its own cell's events. The
// lookahead invariant makes this safe: a cross-cell send generated at
// time t delivers at t+WireDelay ≥ w+L, i.e. at or after the window's
// end barrier, so no shard can ever need an event another shard has
// not yet exchanged. Deliveries are inserted at the barrier, before
// any shard enters the window that could execute them.
//
// The final inclusive Run(H) step exists because RunBefore is
// exclusive: events scheduled exactly at the horizon (a delivery whose
// wire delay divides the run length, the last reverse-slot runway
// instant) must still fire inside this Run call, as a single cell's
// inclusive kernel.Run(H) fires them.
//
// # Worker pool
//
// Each window runs on min(GOMAXPROCS, cells) workers: the coordinator
// and one goroutine per further worker. Every worker claims the next
// unclaimed shard index until none is left. The WaitGroup wait that
// ends the window is the barrier; it orders every shard's writes
// before the coordinator reads shard state.
//
// # Determinism
//
// Shards share no mutable state: each cell owns its RNG fork
// (Seed+i), metrics, codec scratch, trace tap, and pending/sequence
// tables. The only cross-cell coupling is the exchanged sends, whose
// order is pinned by the (deliverAt, src, seq) merge (see exchange.go)
// — independent of which worker runs which shard, of goroutine
// scheduling, and of GOMAXPROCS.
package backbone

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/sim"
)

// window is one barrier-delimited work order.
type window struct {
	limit     time.Duration
	inclusive bool // final step: run events at the horizon itself
}

// shard is one cell's private kernel plus its exchange state.
type shard struct {
	idx    int
	kernel *sim.Simulator
	cell   *core.Network
	in     *Internet

	// pending holds inter-cell sends awaiting uplink completion; xseq
	// hands out this cell's exchange sequence numbers, the third
	// component of the merge order.
	pending map[pendingKey]pendingSend
	xseq    uint64

	// outbox collects the window's cross-cell sends; the coordinator
	// drains it at the barrier.
	outbox []xsend
	// forwarded/delivered are running totals folded into the Internet
	// counters at the end of Run.
	forwarded uint64
	delivered uint64

	err *CellError
}

// onUplink routes a completed uplink message across the wire. It runs
// inside the source cell's kernel.
func (s *shard) onUplink(user frame.UserID, msgID uint16, bytes int) {
	key := pendingKey{user: user, msgID: msgID}
	send, ok := s.pending[key]
	if !ok {
		return // intra-cell traffic, not ours
	}
	delete(s.pending, key)
	now := s.kernel.Now()
	s.outbox = append(s.outbox, xsend{
		deliverAt: now + s.in.WireDelay,
		src:       s.idx,
		dst:       s.in.home[send.dst],
		seq:       s.xseq,
		dstAddr:   send.dst,
		bytes:     bytes,
		latency:   now - send.createdAt,
	})
	s.xseq++
	s.forwarded++
}

// run advances the shard's kernel to the window limit. After a failure
// the shard holds position and reports the same error.
func (s *shard) run(w window) {
	if s.err != nil {
		return
	}
	var err error
	if w.inclusive {
		err = s.kernel.Run(w.limit)
	} else {
		err = s.kernel.RunBefore(w.limit)
	}
	if err != nil {
		cause := s.cell.Err()
		if cause == nil {
			cause = err
		}
		s.err = &CellError{Cell: s.idx, At: s.kernel.Now(), Err: cause}
	}
}

// execDeliver executes one exchanged delivery inside this (destination)
// shard's kernel.
func (s *shard) execDeliver(x xsend) {
	if s.in.deliver(&x) {
		s.delivered++
	}
}

// Run advances every cell by the given number of notification cycles on
// a shared virtual clock. On an internal cell failure the returned
// error is a *CellError naming the cell and the virtual time it had
// reached; the deployment is poisoned for further runs, but every
// cell's partial metrics and traces remain readable.
func (in *Internet) Run(cycles int) error {
	if cycles <= 0 {
		return fmt.Errorf("backbone: non-positive cycle count")
	}
	start := in.committed
	for _, s := range in.shards {
		if err := s.cell.ScheduleCycles(cycles, start); err != nil {
			return err
		}
	}
	horizon := horizonFor(start, cycles)
	workers := min(runtime.GOMAXPROCS(0), len(in.shards))

	var failure *CellError
	w := start
	for {
		win := window{limit: horizon, inclusive: true}
		if w < horizon {
			win = window{limit: min(w+in.lookahead, horizon)}
		}
		in.runWindow(win, workers)
		for _, s := range in.shards {
			if s.err != nil && (failure == nil || s.err.At < failure.At ||
				(s.err.At == failure.At && s.err.Cell < failure.Cell)) {
				failure = s.err
			}
		}
		if failure != nil {
			break
		}
		in.exchange()
		in.committed = win.limit
		if win.inclusive {
			for _, s := range in.shards {
				s.cell.FlushSeries()
			}
		}
		in.applyLatencies(in.committed)
		in.flushTraces()
		if win.inclusive {
			break
		}
		w = win.limit
	}
	in.syncCounters()
	if failure != nil {
		in.flushTraces()
		return failure
	}
	return nil
}

// runWindow runs every shard through one window on `workers` workers,
// the coordinator among them, and returns at the barrier.
func (in *Internet) runWindow(w window, workers int) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(in.shards)); i = next.Add(1) - 1 {
			in.shards[i].run(w)
		}
	}
	wg.Add(workers - 1)
	for k := 1; k < workers; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// syncCounters folds the shards' running forward/deliver totals into
// the Internet counters.
func (in *Internet) syncCounters() {
	var fwd, del uint64
	for _, s := range in.shards {
		fwd += s.forwarded
		del += s.delivered
	}
	if d := fwd - in.Forwarded.Value(); d > 0 {
		in.Forwarded.Addn(d)
	}
	if d := del - in.Delivered.Value(); d > 0 {
		in.Delivered.Addn(d)
	}
}
