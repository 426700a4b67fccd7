package core

import (
	"sort"
	"sync"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
	"github.com/osu-netlab/osumac/internal/stats"
)

// This file implements the compiled-cycle executor: a precompiled
// slot-action table per (reverse format) that replaces the event
// kernel's per-slot heap events with a tight table walk. A cycle whose
// template activates "fast" skips the wire round-trips an ideal channel
// cannot change (control-field encode → transmit → decode, packet
// marshal → RS encode → RS decode → unmarshal) and dispatches each slot
// straight into the protocol handlers. Anything the template cannot
// prove ahead of time — a lossy channel model, a planned contention
// transmission, a CF2 schedule amendment, a reverse-format switch —
// deactivates the fast path for the rest of the cycle: the remaining
// actions still fire from the table at identical (time, priority,
// sequence) coordinates, but run the exact event-kernel handlers. The
// two engines are observationally identical (traces, metrics, RNG
// streams); the differential fuzz target in the root package proves it.

// slotOp classifies one compiled slot action.
type slotOp uint8

const (
	opCF1 slotOp = iota
	opCF2
	opGPS
	opData
	opForward
)

// templAction is one precompiled action: what to do, where, and at
// which offset from the cycle start.
type templAction struct {
	op     slotOp
	slot   int           // slot index (-1 for control fields)
	at     time.Duration // offset from the cycle's t0
	pri    sim.Priority
	isLast bool // last reverse data slot of the cycle
}

// cycleTemplate is the compiled form of one reverse format's cycle:
// sched lists the actions in the event kernel's scheduling order (the
// sequence-reservation order), exec re-orders them by firing time.
type cycleTemplate struct {
	format ReverseFormat
	sched  []templAction
	exec   []int // sched indices sorted by (at, pri, sched index)
}

// maxTemplateActions bounds a template: CF1 + CF2 + GPS + reverse data
// + forward data slots.
const maxTemplateActions = 2 + frame.GPSScheduleEntries +
	frame.ReverseScheduleEntries + frame.ForwardScheduleEntries

// sharedTemplates holds the two reverse formats' cycle templates,
// compiled once per process. Executors only read them, so cells on
// different workers share them safely.
var sharedTemplates = sync.OnceValue(func() *[2]*cycleTemplate {
	return &[2]*cycleTemplate{buildTemplate(Format1), buildTemplate(Format2)}
})

// buildTemplate compiles one reverse format's slot layout into an
// action table. It mirrors beginCycle's scheduling order exactly: CF1,
// CF2, GPS slots, reverse data slots, forward slots.
func buildTemplate(format ReverseFormat) *cycleTemplate {
	layout := layoutOf(format)
	t := &cycleTemplate{format: format}
	t.sched = append(t.sched,
		templAction{op: opCF1, slot: -1, at: layout.CF1.End, pri: sim.PriorityDeliver},
		templAction{op: opCF2, slot: -1, at: layout.CF2.End, pri: sim.PriorityDeliver})
	for i, iv := range layout.GPS {
		t.sched = append(t.sched, templAction{op: opGPS, slot: i, at: iv.Start, pri: sim.PriorityLate})
	}
	for i, iv := range layout.ReverseData {
		t.sched = append(t.sched, templAction{
			op: opData, slot: i, at: iv.End, pri: sim.PriorityDeliver,
			isLast: i == layout.LastDataSlot(),
		})
	}
	for i, iv := range layout.ForwardData {
		t.sched = append(t.sched, templAction{op: opForward, slot: i, at: iv.End, pri: sim.PriorityDeliver})
	}
	t.exec = make([]int, len(t.sched))
	for i := range t.exec {
		t.exec[i] = i
	}
	// Stable sort: ties on (at, pri) keep scheduling order, which is
	// ascending-sequence order, so exec is the exact firing order.
	sort.SliceStable(t.exec, func(a, b int) bool {
		x, y := &t.sched[t.exec[a]], &t.sched[t.exec[b]]
		if x.at != y.at {
			return x.at < y.at
		}
		return x.pri < y.pri
	})
	return t
}

// compiledInstance is one cycle bound to a template: the cycle's t0,
// control fields, reserved kernel sequence numbers, and a cursor over
// the active actions. Two instances suffice: a cycle's only action past
// the next cycle's activation is its overlapping last reverse data slot.
type compiledInstance struct {
	tmpl   *cycleTemplate
	cycle  int
	t0     time.Duration
	layout Layout
	cf1    *frame.ControlFields // live pointer: CF2 amendments are visible
	cf1Air []byte               // encoded CF1, for the slow delivery path
	fast   bool
	inUse  bool
	pos    int // index into tmpl.exec of the next active action

	active     [maxTemplateActions]bool
	seqs       [maxTemplateActions]uint64
	contention [frame.ReverseScheduleEntries]bool
	fwdUsers   [frame.ForwardScheduleEntries]frame.UserID
}

// head returns the instance's next action coordinates.
func (ci *compiledInstance) head() (time.Duration, sim.Priority, uint64) {
	si := ci.tmpl.exec[ci.pos]
	a := &ci.tmpl.sched[si]
	return ci.t0 + a.at, a.pri, ci.seqs[si]
}

// advance moves the cursor to the next active action, releasing the
// instance when the cycle is drained.
func (ci *compiledInstance) advance() {
	for ci.pos++; ci.pos < len(ci.tmpl.exec); ci.pos++ {
		if ci.active[ci.tmpl.exec[ci.pos]] {
			return
		}
	}
	ci.inUse = false
}

// compiledSource feeds compiled cycles into the kernel's main loop as a
// sim.ActionSource. It runs each cycle off the process-wide template of
// its reverse format; a cycle that switches format runs slow, and
// counts as a recompile.
type compiledSource struct {
	n          *Network
	inst       [2]compiledInstance
	lastFormat ReverseFormat
}

var _ sim.ActionSource = (*compiledSource)(nil)

// newCompiledSource returns an executor for n. The caller attaches it
// to the kernel.
func newCompiledSource(n *Network) *compiledSource {
	return &compiledSource{n: n}
}

// activate binds a free instance to cycle k and reserves its kernel
// sequence numbers in the exact order beginCycle's event path would
// have scheduled them, so compiled and event cycles interleave
// identically. It reports false when both instances are still busy (the
// caller then schedules the cycle through plain heap events, which is
// sequence-equivalent). Conditions known at activation time — a lossy
// channel model somewhere, a reverse-format switch — deactivate the
// fast path up front; the cycle still runs off the table via the slow
// handlers.
func (cs *compiledSource) activate(k int, t0 time.Duration, layout Layout, cf1 *frame.ControlFields, cf1Air []byte) bool {
	var ci *compiledInstance
	for i := range cs.inst {
		if !cs.inst[i].inUse {
			ci = &cs.inst[i]
			break
		}
	}
	if ci == nil {
		return false
	}
	n := cs.n
	fast := true
	if cs.lastFormat != 0 && cs.lastFormat != layout.Format {
		n.metrics.CompiledRecompiles.Inc()
		n.metrics.CompiledFallbackFormat.Inc()
		fast = false
	}
	cs.lastFormat = layout.Format
	if !n.allIdeal {
		n.metrics.CompiledFallbackLoss.Inc()
		fast = false
	}
	n.metrics.CompiledCycles.Inc()
	if !fast {
		n.metrics.CompiledFallbacks.Inc()
	}

	ci.tmpl = sharedTemplates()[layout.Format-1]
	ci.cycle = k
	ci.t0 = t0
	ci.layout = layout
	ci.cf1 = cf1
	ci.cf1Air = cf1Air
	ci.fast = fast
	ci.inUse = true
	for i := range ci.contention {
		ci.contention[i] = i < len(layout.ReverseData) && cf1.ReverseSchedule[i] == frame.NoUser
	}
	ci.fwdUsers = cf1.ForwardSchedule
	for si := range ci.tmpl.sched {
		a := &ci.tmpl.sched[si]
		act := a.op != opForward || cf1.ForwardSchedule[a.slot] != frame.NoUser
		ci.active[si] = act
		if act {
			ci.seqs[si] = n.sim.ReserveSeq()
		}
	}
	ci.pos = -1
	ci.advance()
	return true
}

// pick returns the instance whose next action fires first, or nil.
func (cs *compiledSource) pick() *compiledInstance {
	var best *compiledInstance
	for i := range cs.inst {
		ci := &cs.inst[i]
		if !ci.inUse {
			continue
		}
		if best == nil {
			best = ci
			continue
		}
		at, p, seq := ci.head()
		bat, bp, bseq := best.head()
		if at < bat || (at == bat && (p < bp || (p == bp && seq < bseq))) {
			best = ci
		}
	}
	return best
}

// PeekAction implements sim.ActionSource.
func (cs *compiledSource) PeekAction() (time.Duration, sim.Priority, uint64, bool) {
	best := cs.pick()
	if best == nil {
		return 0, 0, 0, false
	}
	at, p, seq := best.head()
	return at, p, seq, true
}

// FireAction implements sim.ActionSource: it executes the earliest
// pending action. The cursor advances first so handlers that inspect
// the instance (fallback, delivery) see a consistent state.
func (cs *compiledSource) FireAction() {
	ci := cs.pick()
	if ci == nil {
		return
	}
	a := ci.tmpl.sched[ci.tmpl.exec[ci.pos]]
	ci.advance()
	n := cs.n
	switch a.op {
	case opCF1:
		n.fireControlCF1(ci)
	case opCF2:
		n.fireControlCF2(ci)
	default:
		if ci.fast {
			n.SimulationCycle(ci, a)
		} else {
			n.runSlowAction(ci, a)
		}
	}
}

// compiledFallback deactivates an instance's fast path for the rest of
// its cycle, counting the reason. Reasons are counted independently;
// CompiledFallbacks increments once per cycle on the fast→slow edge.
func (n *Network) compiledFallback(ci *compiledInstance, reason *stats.Counter) {
	reason.Inc()
	if ci.fast {
		ci.fast = false
		n.metrics.CompiledFallbacks.Inc()
	}
}

// anyContentionPlanned reports whether any subscriber's current-cycle
// plan includes a contention transmission — the intra-cycle surprise
// the fast data-slot handler cannot model (collisions and backoff need
// the full wire path).
func (n *Network) anyContentionPlanned() bool {
	for _, e := range n.subs {
		if e.hasPlan && e.planCycle == n.cycle-1 && e.plan.ContentionSlot >= 0 {
			return true
		}
	}
	return false
}

// fireControlCF1 delivers the first control-field set. Fast mode hands
// every listener the shared decoded struct (an ideal channel's
// decode∘encode is the identity, and no subscriber mutates or retains
// it); plans that came back with a contention transmission deactivate
// the fast path before any data slot fires.
func (n *Network) fireControlCF1(ci *compiledInstance) {
	if !ci.fast {
		n.deliverCF1All(ci.cf1Air, ci.layout)
		return
	}
	for _, e := range n.subs {
		if e.sub.State() == StateIdle || e.listensCF2 {
			continue
		}
		n.deliverCFDirect(e, ci.cf1, ci.layout)
	}
	if n.anyContentionPlanned() {
		n.compiledFallback(ci, &n.metrics.CompiledFallbackContention)
	}
}

// fireControlCF2 builds and delivers the second control-field set.
// BuildCF2 is not idempotent (amendments grant GPS slots), so it runs
// exactly once here; a fallback triggered at CF2 (amendment, or a CF2
// listener planning contention) reverts delivery to the wire path for
// this set and the slow handlers for the remaining slots. A CF2
// listener's contention slot always starts after CF2 plus the switch
// guard (pickContentionSlot enforces it), so no already-fired fast slot
// could have been its target.
func (n *Network) fireControlCF2(ci *compiledInstance) {
	if !ci.fast {
		n.deliverCF2All(ci.layout)
		return
	}
	cf2 := n.base.BuildCF2()
	n.announceCF2Amendments()
	if len(n.base.CF2Amendments()) > 0 {
		n.compiledFallback(ci, &n.metrics.CompiledFallbackAmendment)
	}
	if !ci.fast {
		n.deliverCF2Wire(cf2, ci.layout)
		return
	}
	for _, e := range n.subs {
		if e.sub.State() == StateIdle || !e.listensCF2 {
			continue
		}
		n.metrics.CF2Listens.Inc()
		n.deliverCFDirect(e, cf2, ci.layout)
	}
	if n.anyContentionPlanned() {
		n.compiledFallback(ci, &n.metrics.CompiledFallbackContention)
	}
}

// deliverCFDirect is deliverCF minus the wire: the fast path hands the
// subscriber the already-built control fields. Identical to a clean
// decode because OnControlFields and ObservePaging only read the
// struct.
func (n *Network) deliverCFDirect(e *subEntry, cf *frame.ControlFields, layout Layout) {
	e.plan = e.sub.OnControlFields(cf, layout, n.sim.Now())
	e.hasPlan = true
	e.planCycle = n.cycle - 1
	e.sub.ObservePaging(cf)
	n.maybeStartSources(e)
}

// runSlowAction dispatches one action through the event kernel's slot
// handlers — the fallback body, byte-identical to the event path.
func (n *Network) runSlowAction(ci *compiledInstance, a templAction) {
	switch a.op {
	case opGPS:
		n.gpsSlotStart(ci.cf1, a.slot, ci.t0+a.at)
	case opData:
		n.dataSlotEnd(ci.cycle, a.slot, a.isLast, ci.contention[a.slot])
	case opForward:
		n.forwardSlotEnd(a.slot, ci.fwdUsers[a.slot])
	}
}

// SimulationCycle dispatches one fast slot action. It is the compiled
// executor's hot inner loop and a hotpathalloc root: with tracing off
// it must not allocate.
func (n *Network) SimulationCycle(ci *compiledInstance, a templAction) {
	switch a.op {
	case opGPS:
		n.fastGPSSlot(ci, a.slot, ci.t0+a.at)
	case opData:
		n.fastDataSlot(ci, a.slot, a.isLast)
	case opForward:
		n.fastForwardSlot(ci, a.slot)
	}
}

// fastGPSSlot is gpsSlotStart minus the wire: the report cannot be
// corrupted (ideal channel, zero RNG draws either way) and its
// marshal/unmarshal round-trip is the identity for protocol-built
// reports.
func (n *Network) fastGPSSlot(ci *compiledInstance, slot int, txStart time.Duration) {
	holder := ci.cf1.GPSSchedule[slot]
	if holder == frame.NoUser {
		return
	}
	e := n.byID(holder)
	if e == nil || !e.hasPlan || e.planCycle != n.cycle-1 || e.plan.GPSSlot != slot {
		return
	}
	arrival, ok := e.sub.MakeGPSReportInto(&n.scratchGPS)
	if !ok {
		return
	}
	delay := txStart - arrival
	n.metrics.GPSAccessDelay.AddDuration(delay)
	if delay > phy.GPSAccessDeadline {
		n.metrics.GPSDeadlineViolations.Inc()
		if n.tracing() {
			n.traceD(EventGPSDeadlineViolation, holder, slot,
				DetailGPSLate, int64(delay), int64(phy.GPSAccessDeadline), 0)
		}
	}
	if n.base.RecordGPSDirect(&n.scratchGPS) {
		if n.tracing() {
			n.traceD(EventGPSRx, holder, slot, DetailGPSDelay, int64(delay), 0, 0)
		}
	}
}

// fastDataSlot is dataSlotEnd minus the wire. Fast mode guarantees no
// contention transmission is planned, so a contention slot is silent
// (RecordReverse with zero payloads is a no-op) and a scheduled slot
// carries at most its owner's packet, which survives the ideal channel
// bit-for-bit.
func (n *Network) fastDataSlot(ci *compiledInstance, slot int, isLast bool) {
	if ci.contention[slot] {
		return
	}
	owner := ci.cf1.ReverseSchedule[slot]
	e := n.byID(owner)
	if e == nil || !e.hasPlan || e.planCycle != ci.cycle {
		return
	}
	granted := false
	for _, s := range e.plan.DataSlots {
		if s == slot {
			granted = true
			break
		}
	}
	if !granted {
		return
	}
	if !e.sub.MakeDataPacketInto(slot, &n.scratchData, n.scratchPayload[:]) {
		return
	}
	n.metrics.FragmentsSent.Inc()
	n.scratchPkt.Type = frame.TypeData
	n.scratchPkt.Data = &n.scratchData
	intoPrev := ci.cycle != n.cycle-1
	out := n.base.recordPacket(slot, intoPrev, isLast, &n.scratchPkt, false)
	n.handleOutcome(out, ci.cycle, slot)
}

// fastForwardSlot is forwardSlotEnd minus the wire: the queued packet
// reaches the subscriber unchanged, and ReceiveForward reads only the
// header and payload length, which the marshal round-trip preserves.
func (n *Network) fastForwardSlot(ci *compiledInstance, slot int) {
	user := ci.fwdUsers[slot]
	pkt := n.base.PopForward(user)
	if pkt == nil {
		return
	}
	n.metrics.ForwardPktsSent.Inc()
	e := n.byID(user)
	if e == nil || !e.hasPlan || e.planCycle != n.cycle-1 {
		return // subscriber missed the control fields: not listening
	}
	n.metrics.ForwardPktsDelivered.Inc()
	if n.tracing() {
		n.traceD(EventForwardTx, user, slot, DetailForwardFrag, int64(pkt.Header.MsgID), int64(pkt.Header.Frag), 0)
	}
	if done, msgID, _ := e.sub.ReceiveForward(pkt); done {
		delete(n.fwdMeta, fwdKey(user, msgID))
	}
}
