// Trace fan-in: per-cell capture taps merged into one deterministic
// multi-cell stream.
//
// Each cell's tracer hook points at a cellTap, which (a) forwards every
// event inline to the cell's private chain (Options.CellTracer — the
// conformance-checker seam, which sees events in exact cell-local
// order) and (b) buffers events for the shared sink (Config.Tracer).
// The coordinator flushes the buffers at every barrier, sorting each
// flush batch by (At, cell, Seq).
//
// The cumulative flushed stream is independent of shard scheduling and
// of the barrier window: batches are time-partitioned (a shard's clock
// never re-enters a flushed window, and the sort key leads with At),
// per-cell Seq is the cell's own monotone trace counter, and the cell
// index breaks cross-cell ties identically everywhere.
package backbone

import (
	"sort"

	"github.com/osu-netlab/osumac/internal/core"
)

// cellTap is one cell's tracer hook. Trace is on the simulation hot
// path (reachable through the Tracer seam), so it only appends to its
// buffer and forwards — no allocation beyond amortized slice growth.
type cellTap struct {
	next    core.Tracer // per-cell chain (conformance checker etc.)
	capture bool        // buffer for the shared merged sink
	buf     []core.TraceEvent
}

var _ core.Tracer = (*cellTap)(nil)

// Trace implements core.Tracer.
func (t *cellTap) Trace(e core.TraceEvent) {
	if t.capture {
		t.buf = append(t.buf, e)
	}
	if t.next != nil {
		t.next.Trace(e)
	}
}

// taggedEvent carries the cell index through the merge sort.
type taggedEvent struct {
	cell int
	ev   core.TraceEvent
}

// flushTraces drains every tap buffer into the shared sink in
// (At, cell, Seq) order. Callers hold the coordinator role: no kernel
// is running, because all shards are parked at a barrier.
func (in *Internet) flushTraces() {
	if in.sink == nil {
		return
	}
	n := 0
	for _, t := range in.taps {
		if t != nil {
			n += len(t.buf)
		}
	}
	if n == 0 {
		return
	}
	merged := make([]taggedEvent, 0, n)
	for cell, t := range in.taps {
		if t == nil {
			continue
		}
		for _, e := range t.buf {
			merged = append(merged, taggedEvent{cell: cell, ev: e})
		}
		t.buf = t.buf[:0]
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := &merged[i], &merged[j]
		if a.ev.At != b.ev.At {
			return a.ev.At < b.ev.At
		}
		if a.cell != b.cell {
			return a.cell < b.cell
		}
		return a.ev.Seq < b.ev.Seq
	})
	for i := range merged {
		in.sink.Trace(merged[i].ev)
	}
}
