// Package span builds causal, span-structured traces over the flat
// core.TraceEvent stream: each uplink message and each GPS location
// report becomes one trace tree stitching its full lifecycle — enqueue,
// reservation signalling, control-field announcement, slot grant,
// airtime, decode, completion-or-drop — with stable trace/span IDs and
// parent links that cross the δ-shifted forward/reverse cycle boundary.
//
// On top of the model sit a critical-path analyzer that attributes each
// trace's wall-clock time to named phases (queue wait, contention
// backoff, CF wait, slot wait, airtime, decode), exporters to
// Perfetto/Chrome trace-event JSON and to span JSONL, and a per-phase
// distribution used by osumacdiff and the live /spans endpoint.
//
// Everything here is strictly offline: the package consumes an already
// recorded event slice and never touches the simulation hot path, so
// the zero-overhead invariant of the telemetry layer (DESIGN §7) is
// untouched — with tracing disabled nothing in this package runs.
package span

import (
	"fmt"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
)

// Phase names one stage of a message or GPS report lifecycle, in
// causal order. The critical-path analyzer partitions every trace's
// wall-clock duration into these phases.
type Phase int

const (
	// PhaseQueueWait is time at the subscriber before any signalling
	// opportunity (no contention slot reachable yet, or a GPS report
	// waiting for the next cycle's announcement).
	PhaseQueueWait Phase = iota + 1
	// PhaseContention covers reservation attempts and the backoff
	// between them, from the first contention transmission until the
	// base station heard the demand.
	PhaseContention
	// PhaseCFWait is demand-known-at-base until the control fields
	// announcing the serving grant (the base schedules at the next
	// cycle start; lost requests re-enter here).
	PhaseCFWait
	// PhaseSlotWait is grant announcement (CF1 at cycle start) until
	// the granted slot opens on the reverse channel.
	PhaseSlotWait
	// PhaseAirtime is the slot's on-air transmission time.
	PhaseAirtime
	// PhaseDecode is RS decode plus reassembly at the slot end — zero
	// virtual width in this simulation, kept so the model names every
	// stage a real deployment would measure.
	PhaseDecode
)

// phaseCount is one past the highest defined Phase.
const phaseCount = int(PhaseDecode) + 1

// PhaseReservationWait is the protocol-agnostic reading of PhaseCFWait:
// demand known at the base until the serving grant. For OSU-MAC that
// wait ends at a control-field announcement (hence the historical
// name); for the baseline protocols it ends at the frame whose data
// slot serves the fragment. The two are one phase — league tables and
// cross-protocol breakdowns label the same column either way.
const PhaseReservationWait = PhaseCFWait

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseQueueWait:
		return "queue-wait"
	case PhaseContention:
		return "contention-backoff"
	case PhaseCFWait:
		return "cf-wait"
	case PhaseSlotWait:
		return "slot-wait"
	case PhaseAirtime:
		return "airtime"
	case PhaseDecode:
		return "decode"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// ParsePhase resolves a phase's String() form; ok is false for unknown
// names (including the root span's empty phase).
func ParsePhase(s string) (p Phase, ok bool) {
	for p := PhaseQueueWait; int(p) < phaseCount; p++ {
		if p.String() == s {
			return p, true
		}
	}
	return 0, false
}

// AllPhases returns every defined phase in causal order.
func AllPhases() []Phase {
	out := make([]Phase, 0, phaseCount-1)
	for p := PhaseQueueWait; int(p) < phaseCount; p++ {
		out = append(out, p)
	}
	return out
}

// TraceKind distinguishes the two traced lifecycles.
type TraceKind int

const (
	// KindMessage is an uplink application message (enqueue →
	// reservation → grants → fragments → completion).
	KindMessage TraceKind = iota + 1
	// KindGPS is one periodic location report (arrival → slot →
	// reception, or stale replacement).
	KindGPS
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case KindMessage:
		return "message"
	case KindGPS:
		return "gps"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// Span is one node of a trace tree. The root span covers the whole
// lifecycle; child spans are its critical-path phases, each carrying
// the protocol attributes (cycle, slot, reverse format, retransmission
// count) of the stage it describes.
type Span struct {
	// TraceID names the trace this span belongs to (see the ID scheme
	// in DESIGN §7: "u<user>-m<msgID>" / "u<user>-g<seq>").
	TraceID string `json:"traceId"`
	// SpanID is unique within the trace: "<traceID>:root" or
	// "<traceID>:<phase>-<i>".
	SpanID string `json:"spanId"`
	// ParentID is the parent span's SpanID; empty for the root.
	ParentID string `json:"parentId,omitempty"`
	// Name is the human label ("msg 17 (344B)", "slot-wait", ...).
	Name string `json:"name"`
	// Phase classifies phase spans; 0 for the root.
	Phase Phase `json:"-"`
	// PhaseName is the Phase's string form, for JSON consumers.
	PhaseName string `json:"phase,omitempty"`
	// User is the subscriber the span belongs to.
	User frame.UserID `json:"user"`
	// Start and End are virtual times.
	Start time.Duration `json:"startNs"`
	End   time.Duration `json:"endNs"`
	// Cycle is the notification cycle the span sits in, or -1 when it
	// crosses cycle boundaries.
	Cycle int `json:"cycle"`
	// Slot is the slot index involved, or -1.
	Slot int `json:"slot"`
	// Format is the reverse format ("format1"/"format2") governing the
	// span's cycle, when known.
	Format string `json:"format,omitempty"`
	// Retx counts retransmissions observed within the span.
	Retx int `json:"retx,omitempty"`
	// Detail is a short annotation (miss reasons, fragment indexes).
	Detail string `json:"detail,omitempty"`
}

// Duration returns the span's width.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Trace is one stitched lifecycle: a root span plus its phase spans.
type Trace struct {
	// ID is the stable trace identifier.
	ID string `json:"id"`
	// Kind is message or gps.
	Kind TraceKind `json:"-"`
	// KindName is Kind's string form, for JSON consumers.
	KindName string `json:"kind"`
	// User is the owning subscriber.
	User frame.UserID `json:"user"`
	// MsgID is the MAC message ID (messages) or the per-user report
	// index (GPS).
	MsgID int `json:"msgId"`
	// Bytes is the application payload size (messages only).
	Bytes int `json:"bytes,omitempty"`
	// Start and End bound the lifecycle.
	Start time.Duration `json:"startNs"`
	End   time.Duration `json:"endNs"`
	// Complete is true when the lifecycle finished successfully
	// (message fully reassembled / report received).
	Complete bool `json:"complete"`
	// Violation marks a GPS report that broke the 4 s access deadline.
	Violation bool `json:"violation,omitempty"`
	// Stale marks the source-side GPS drop (replaced before any slot).
	Stale bool `json:"stale,omitempty"`
	// Retx counts observed retransmissions across the trace.
	Retx int `json:"retx,omitempty"`
	// Spans holds the root span first, then phase spans in time order.
	Spans []Span `json:"spans"`
}

// Duration returns the lifecycle's wall-clock width.
func (t *Trace) Duration() time.Duration { return t.End - t.Start }

// Root returns the root span.
func (t *Trace) Root() Span {
	if len(t.Spans) == 0 {
		return Span{}
	}
	return t.Spans[0]
}

// Set is the result of stitching one event stream.
type Set struct {
	// Traces holds every stitched lifecycle in start order.
	Traces []*Trace
	// Events is how many trace events were consumed.
	Events int
	// Cycles is the highest cycle index observed, plus one.
	Cycles int
}

// ByUser returns the set's traces for one user, in start order.
func (s *Set) ByUser(u frame.UserID) []*Trace {
	var out []*Trace
	for _, t := range s.Traces {
		if t.User == u {
			out = append(out, t)
		}
	}
	return out
}

// Find returns the trace with the given ID, or nil.
func (s *Set) Find(id string) *Trace {
	for _, t := range s.Traces {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Violations returns the GPS traces that broke the deadline, in start
// order.
func (s *Set) Violations() []*Trace {
	var out []*Trace
	for _, t := range s.Traces {
		if t.Violation {
			out = append(out, t)
		}
	}
	return out
}
