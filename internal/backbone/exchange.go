// Cross-cell send exchange: the deterministic merge that makes a
// multi-cell run independent of how its shards are scheduled.
//
// Every forwarded uplink becomes one xsend record keyed by
// (deliverAt, src, seq): the wire-delayed delivery instant, the source
// cell, and a per-source-cell sequence number assigned in uplink
// completion order. At each barrier the coordinator gathers every
// shard's outbox, sorts the batch by that key, and inserts one
// sim.PriorityBackbone event per xsend into the destination shard in
// that order; the kernel's (time, priority, insertion) order then
// executes them in the merge order. PriorityBackbone sorts after every
// local event at the same instant, so a delivery's position never
// depends on anything but its key.
//
// End-to-end latency samples are order-sensitive (stats.Sample sums
// floats), so they are recorded in the same (deliverAt, src, seq)
// order, at the barrier that commits the delivery time.
package backbone

import (
	"sort"
	"time"

	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/sim"
)

// xsend is one cross-cell send in flight on the wire.
type xsend struct {
	deliverAt time.Duration
	src, dst  int
	seq       uint64 // per-src assignment order
	dstAddr   Address
	bytes     int
	latency   time.Duration // uplink arrival → base-station receipt
}

// sortXsends orders a batch by the canonical (deliverAt, src, seq) key.
func sortXsends(batch []xsend) {
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if a.deliverAt != b.deliverAt {
			return a.deliverAt < b.deliverAt
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
}

// deliver hands one wire arrival to the destination base station. It
// reports whether the downlink leg was accepted. It runs inside the
// destination shard's kernel; it touches only the destination cell and
// read-only routing maps.
func (in *Internet) deliver(x *xsend) bool {
	dstSub := in.subs[x.dstAddr]
	if dstSub.State() != core.StateActive {
		return false // destination left the network; packet dropped
	}
	return in.shards[x.dst].cell.SendToSubscriber(dstSub, x.bytes) == nil
}

// exchange runs at a barrier: it gathers every shard's outbox,
// sorts the batch into the canonical order, inserts delivery events
// into the destination shards, and appends the batch to the latency
// queue. All shards are parked at the barrier, so no kernel is
// concurrently running. Insertion order realizes the merge order:
// events at equal (time, priority) execute in insertion sequence.
func (in *Internet) exchange() {
	var batch []xsend
	for _, s := range in.shards {
		batch = append(batch, s.outbox...)
		s.outbox = s.outbox[:0]
	}
	if len(batch) == 0 {
		return
	}
	sortXsends(batch)
	for _, x := range batch {
		x := x
		dst := in.shards[x.dst]
		if err := dst.kernel.At(x.deliverAt, sim.PriorityBackbone, func() { dst.execDeliver(x) }); err != nil {
			//lint:ignore panicfree provably unreachable: deliverAt >= window end = destination kernel's now (the conservative-lookahead invariant)
			panic(err)
		}
	}
	in.latQ = append(in.latQ, batch...)
	// Batches arrive in ascending disjoint deliverAt ranges, so the
	// append usually keeps latQ sorted already; re-sorting pins the
	// order across Run boundaries, where an old run's tail batch can
	// share its delivery instant with the new run's first batch.
	sortXsends(in.latQ)
}

// applyLatencies records the end-to-end latency of every exchanged
// send whose delivery instant the barriers have committed, in the
// canonical order.
func (in *Internet) applyLatencies(committed time.Duration) {
	i := 0
	for i < len(in.latQ) && in.latQ[i].deliverAt <= committed {
		in.EndToEndLat.AddDuration(in.latQ[i].latency)
		i++
	}
	if i > 0 {
		in.latQ = append(in.latQ[:0], in.latQ[i:]...)
	}
}
