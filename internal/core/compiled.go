package core

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
	"github.com/osu-netlab/osumac/internal/stats"
)

// This file implements the compiled-cycle executor: every notification
// cycle plays off a precompiled slot-action table per reverse format,
// fed to the kernel through the sim.ActionSource seam instead of one
// heap event per slot. A cycle whose instance activates "fast" skips
// the wire round-trips an ideal channel cannot change (control-field
// encode → transmit → decode, packet marshal → RS encode → RS decode →
// unmarshal) and dispatches each slot straight into the protocol
// handlers; contention slots included, since a contender's marshaled
// packet reaches the base station unchanged. Anything the template
// cannot prove ahead of time — a lossy channel model, a CF2 schedule
// amendment, a reverse-format switch — deactivates the fast path for
// the rest of the cycle: the remaining actions still fire from the
// table at identical sim.Key coordinates, but run the wire handlers
// (deliverCF1All, deliverCF2All, gpsSlotStart, dataSlotEnd,
// forwardSlotEnd). Config.DisableCompiledCycle runs every cycle on the
// wire handlers; the differential tests in the root package compare
// the two trace for trace.
//
// The same source is the cell's cycle clock: ScheduleCycles records a
// run of cycle starts with their reserved sequence numbers instead of
// queuing one heap event per cycle, and the source fires each start at
// the key a heap event would have had.

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
// sched lists the actions in sequence-number order, exec re-orders them
// by firing time. Forward slots come last in sched, so every action
// before firstFwd takes sequence number seq0 + its sched index, and an
// assigned forward slot takes seq0 + firstFwd + the number of assigned
// forward slots before it; an unassigned forward slot takes none.
type cycleTemplate struct {
	format   ReverseFormat
	sched    []templAction
	exec     []int // sched indices sorted by (at, pri, sched index)
	firstFwd int   // sched index of forward slot 0
}

// sharedTemplates holds the two reverse formats' cycle templates,
// compiled once per process. Executors only read them, so cells on
// different workers share them safely.
var sharedTemplates = sync.OnceValue(func() *[2]*cycleTemplate {
	return &[2]*cycleTemplate{buildTemplate(Format1), buildTemplate(Format2)}
})

// buildTemplate compiles one reverse format's slot layout into an
// action table, in sequence order: CF1, CF2, GPS slots, reverse data
// slots, forward slots.
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
	t.firstFwd = len(t.sched)
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
// control fields, first reserved kernel sequence number, and a cursor
// over the cycle's actions. Two instances suffice: cycle k runs on
// inst[k&1], and ScheduleCycles keeps cycle starts at least one
// CycleLength apart, so cycle k-2's last action (its overlapping last
// reverse data slot) has fired before cycle k starts.
type compiledInstance struct {
	tmpl    *cycleTemplate
	cycle   int
	t0      time.Duration
	layout  Layout
	cf1     *frame.ControlFields // live pointer: CF2 amendments are visible
	fast    bool
	inUse   bool
	pos     int     // index into tmpl.exec of the next action
	next    sim.Key // that action's key
	seq0    uint64  // the cycle's first reserved sequence number
	fwdMask uint64  // bit i set: forward slot i is assigned (37 fit)

	contention [frame.ReverseScheduleEntries]bool
	fwdUsers   [frame.ForwardScheduleEntries]frame.UserID
}

// advance moves the cursor to the next action, skipping unassigned
// forward slots, and releases the instance when the cycle is drained.
func (ci *compiledInstance) advance() {
	t := ci.tmpl
	for ci.pos++; ci.pos < len(t.exec); ci.pos++ {
		si := t.exec[ci.pos]
		a := &t.sched[si]
		rank := si
		if a.op == opForward {
			bit := uint64(1) << a.slot
			if ci.fwdMask&bit == 0 {
				continue
			}
			rank = t.firstFwd + bits.OnesCount64(ci.fwdMask&(bit-1))
		}
		ci.next = sim.Key{At: ci.t0 + a.at, Priority: a.pri, Seq: ci.seq0 + uint64(rank)}
		return
	}
	ci.inUse = false
}

// cycleRun is one ScheduleCycles call's pending cycle starts: cycle
// `cycle` begins at next, and each of the `left`-1 after it one
// CycleLength and one sequence number later — the keys the call's At
// loop would have given its heap events.
type cycleRun struct {
	next  sim.Key
	cycle int
	left  int
}

// compiledSource feeds compiled cycles into the kernel's main loop as a
// sim.ActionSource. It runs each cycle off the process-wide template of
// its reverse format; a cycle that switches format runs slow, and
// counts as a recompile. It also holds the cell's pending cycle starts
// (runs), so one source per cell carries everything the kernel would
// otherwise queue for a cycle.
type compiledSource struct {
	n          *Network
	compile    bool // false under Config.DisableCompiledCycle: every cycle slow
	inst       [2]compiledInstance
	lastFormat ReverseFormat
	// runs holds ScheduleCycles' pending cycle starts, oldest first.
	// Runs never overlap, so runs[0] holds the next start.
	runs []cycleRun
	// lastStart is the latest cycle start ever scheduled, if any cycle
	// was.
	lastStart time.Duration
}

var _ sim.ActionSource = (*compiledSource)(nil)

// newCompiledSource returns an executor for n; with compile false every
// cycle runs on the wire handlers. The caller attaches it to the
// kernel.
func newCompiledSource(n *Network, compile bool) *compiledSource {
	return &compiledSource{n: n, compile: compile}
}

// activate binds inst[k&1] to cycle k and reserves the cycle's kernel
// sequence numbers as one block, the numbers per-slot At calls in
// template order would have taken, so the cycle's actions interleave
// with heap events deterministically. Conditions known at activation
// time — a lossy channel model somewhere, a reverse-format switch —
// deactivate the fast path up front; the cycle still runs off the
// table via the wire handlers, as every cycle does under
// Config.DisableCompiledCycle.
func (cs *compiledSource) activate(k int, t0 time.Duration, layout Layout, cf1 *frame.ControlFields) *compiledInstance {
	n := cs.n
	ci := &cs.inst[k&1]
	ci.fast = cs.compile
	if cs.compile {
		if cs.lastFormat != 0 && cs.lastFormat != layout.Format {
			n.metrics.CompiledRecompiles.Inc()
			n.metrics.CompiledFallbackFormat.Inc()
			ci.fast = false
		}
		cs.lastFormat = layout.Format
		if !n.allIdeal {
			n.metrics.CompiledFallbackLoss.Inc()
			ci.fast = false
		}
		n.metrics.CompiledCycles.Inc()
		if !ci.fast {
			n.metrics.CompiledFallbacks.Inc()
		}
	}

	ci.tmpl = sharedTemplates()[layout.Format-1]
	ci.cycle = k
	ci.t0 = t0
	ci.layout = layout
	ci.cf1 = cf1
	ci.inUse = true
	for i := range ci.contention {
		ci.contention[i] = i < len(layout.ReverseData) && cf1.ReverseSchedule[i] == frame.NoUser
	}
	ci.fwdUsers = cf1.ForwardSchedule
	ci.fwdMask = 0
	for i, u := range cf1.ForwardSchedule {
		if u != frame.NoUser {
			ci.fwdMask |= 1 << i
		}
	}
	seq0, err := n.sim.ReserveSeqs(t0, ci.tmpl.firstFwd+bits.OnesCount64(ci.fwdMask))
	if err != nil {
		// Unreachable: t0 is the kernel's clock.
		n.fail("cycle activation", err)
	}
	ci.seq0 = seq0
	ci.pos = -1
	ci.advance()
	return ci
}

// pick returns the source's earliest pending action: an instance's next
// slot action (ci non-nil) or the next cycle start. ok is false when the
// source is idle.
func (cs *compiledSource) pick() (key sim.Key, ci *compiledInstance, ok bool) {
	for i := range cs.inst {
		c := &cs.inst[i]
		if c.inUse && (!ok || c.next.Before(key)) {
			key, ci, ok = c.next, c, true
		}
	}
	if len(cs.runs) > 0 && (!ok || cs.runs[0].next.Before(key)) {
		key, ci, ok = cs.runs[0].next, nil, true
	}
	return key, ci, ok
}

// PeekAction implements sim.ActionSource.
func (cs *compiledSource) PeekAction() (sim.Key, bool) {
	key, _, ok := cs.pick()
	return key, ok
}

// FireAction implements sim.ActionSource: it executes the earliest
// pending action. The cursor (or run) advances first so handlers that
// inspect the source (fallback, delivery, activation) see a consistent
// state.
func (cs *compiledSource) FireAction() {
	_, ci, ok := cs.pick()
	if !ok {
		return
	}
	n := cs.n
	if ci == nil {
		r := &cs.runs[0]
		k := r.cycle
		r.next.At += phy.CycleLength
		r.next.Seq++
		r.cycle++
		if r.left--; r.left == 0 {
			cs.runs = slices.Delete(cs.runs, 0, 1)
		}
		n.beginCycle(k)
		return
	}
	a := ci.tmpl.sched[ci.tmpl.exec[ci.pos]]
	ci.advance()
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

// fireControlCF1 delivers the first control-field set. Fast mode hands
// every listener the shared decoded struct (an ideal channel's
// decode∘encode is the identity, and no subscriber mutates or retains
// it). A cycle that runs slow did so from activation — no trigger fires
// between activation and CF1 — so beginCycle has encoded its CF1 into
// cf1Buf for the wire.
func (n *Network) fireControlCF1(ci *compiledInstance) {
	if !ci.fast {
		n.deliverCF1All(n.cf1Buf, ci.layout)
		return
	}
	for _, e := range n.subs {
		if e.sub.State() == StateIdle || e.listensCF2 {
			continue
		}
		n.deliverCFDirect(e, ci.cf1, ci.layout)
	}
}

// fireControlCF2 builds and delivers the second control-field set.
// BuildCF2 is not idempotent (amendments grant GPS slots), so it runs
// exactly once here; a fallback triggered at CF2 (an amendment) reverts
// delivery to the wire path for this set and the slow handlers for the
// remaining slots.
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

// runSlowAction dispatches one slot action through the wire handlers.
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

// fastDataSlot is dataSlotEnd minus the wire. A scheduled slot carries
// at most its owner's packet (contenders only pick unassigned slots),
// which survives the ideal channel bit-for-bit.
func (n *Network) fastDataSlot(ci *compiledInstance, slot int, isLast bool) {
	intoPrev := ci.cycle != n.cycle-1
	if ci.contention[slot] {
		n.fastContentionSlot(ci, slot, intoPrev, isLast)
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
	out := n.base.recordPacket(slot, intoPrev, isLast, &n.scratchPkt, false)
	n.handleOutcome(out, ci.cycle, slot)
}

// fastContentionSlot is dataSlotEnd's contention branch minus the wire:
// each contender's marshaled packet goes straight to RecordReverse,
// because an ideal channel returns the RS codeword unchanged and its
// decode is the marshaled bytes. RecordReverse still parses them, and
// two or more contenders still collide.
func (n *Network) fastContentionSlot(ci *compiledInstance, slot int, intoPrev, isLast bool) {
	infos := n.infoBuf[:0]
	payloads := n.rxInfos[:0]
	for _, e := range n.subs {
		if !e.hasPlan || e.planCycle != ci.cycle || e.plan.ContentionSlot != slot {
			continue
		}
		off := len(infos)
		grown, err := e.sub.MakeContentionPacket(infos)
		if err != nil || len(grown) == off {
			continue
		}
		infos = grown
		payloads = append(payloads, infos[off:])
		if n.tracing() {
			n.trace(EventContentionTx, e.sub.ID(), slot, e.plan.ContentionKind.String())
		}
	}
	n.infoBuf, n.rxInfos = infos, payloads

	out := n.base.RecordReverse(slot, intoPrev, isLast, payloads, true)
	if out.Collision && n.tracing() {
		n.traceD(EventCollision, frame.NoUser, slot, DetailCollision, int64(len(payloads)), 0, 0)
	}
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
