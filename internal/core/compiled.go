package core

import (
	"slices"
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
// straight into the protocol handlers; contention slots included, since
// a contender's marshaled packet reaches the base station unchanged.
// Anything the template cannot prove ahead of time — a lossy channel
// model, a CF2 schedule amendment, a reverse-format switch —
// deactivates the fast path for the rest of the cycle: the remaining
// actions still fire from the table at identical (time, priority,
// sequence) coordinates, but run the exact event-kernel handlers. The
// two engines are observationally identical (traces, metrics, RNG
// streams); the differential fuzz target in the root package proves it.
//
// The same source is the cell's cycle clock: ScheduleCycles records a
// run of cycle starts with their reserved sequence numbers instead of
// queuing one heap event per cycle, and the source fires each start at
// the key the heap event would have had. It runs under
// Config.DisableCompiledCycle too, where it only keeps the clock.

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

// actionKey is a kernel action's position in the total firing order.
type actionKey struct {
	at  time.Duration
	pri sim.Priority
	seq uint64
}

// before reports whether k fires before o.
func (k actionKey) before(o actionKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.pri != o.pri {
		return k.pri < o.pri
	}
	return k.seq < o.seq
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
	fast   bool
	inUse  bool
	pos    int       // index into tmpl.exec of the next active action
	next   actionKey // that action's key

	active     [maxTemplateActions]bool
	seqs       [maxTemplateActions]uint64
	contention [frame.ReverseScheduleEntries]bool
	fwdUsers   [frame.ForwardScheduleEntries]frame.UserID
}

// advance moves the cursor to the next active action, releasing the
// instance when the cycle is drained.
func (ci *compiledInstance) advance() {
	for ci.pos++; ci.pos < len(ci.tmpl.exec); ci.pos++ {
		si := ci.tmpl.exec[ci.pos]
		if ci.active[si] {
			a := &ci.tmpl.sched[si]
			ci.next = actionKey{ci.t0 + a.at, a.pri, ci.seqs[si]}
			return
		}
	}
	ci.inUse = false
}

// cycleRun is one ScheduleCycles call's pending cycle starts: cycle
// `cycle` begins at `at` under sequence number seq, and each of the
// `left`-1 after it one CycleLength and one sequence number later —
// the keys the call's At loop would have given its heap events.
type cycleRun struct {
	at    time.Duration
	seq   uint64
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
	compile    bool // false under Config.DisableCompiledCycle: clock only
	inst       [2]compiledInstance
	lastFormat ReverseFormat
	// runs holds ScheduleCycles' pending cycle starts. Runs that
	// overlap in time interleave by key, exactly as their heap events
	// would have.
	runs []cycleRun
}

var _ sim.ActionSource = (*compiledSource)(nil)

// newCompiledSource returns an executor for n; with compile false it
// only keeps the cycle clock. The caller attaches it to the kernel.
func newCompiledSource(n *Network, compile bool) *compiledSource {
	return &compiledSource{n: n, compile: compile}
}

// activate binds a free instance to cycle k and reserves its kernel
// sequence numbers in the exact order beginCycle's event path would
// have scheduled them, so compiled and event cycles interleave
// identically. It returns nil when the executor is off or both
// instances are still busy (the caller then schedules the cycle through
// plain heap events, which is sequence-equivalent). Conditions known at
// activation time — a lossy channel model somewhere, a reverse-format
// switch — deactivate the fast path up front; the cycle still runs off
// the table via the slow handlers.
func (cs *compiledSource) activate(k int, t0 time.Duration, layout Layout, cf1 *frame.ControlFields) *compiledInstance {
	if !cs.compile {
		return nil
	}
	var ci *compiledInstance
	for i := range cs.inst {
		if !cs.inst[i].inUse {
			ci = &cs.inst[i]
			break
		}
	}
	if ci == nil {
		return nil
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
	return ci
}

// pick returns the source's earliest pending action: an instance's next
// slot action (ci non-nil) or the next cycle start of runs[run]. ok is
// false when the source is idle.
func (cs *compiledSource) pick() (key actionKey, ci *compiledInstance, run int, ok bool) {
	run = -1
	for i := range cs.inst {
		c := &cs.inst[i]
		if c.inUse && (!ok || c.next.before(key)) {
			key, ci, ok = c.next, c, true
		}
	}
	for j := range cs.runs {
		r := &cs.runs[j]
		if k := (actionKey{r.at, sim.PriorityNormal, r.seq}); !ok || k.before(key) {
			key, ci, run, ok = k, nil, j, true
		}
	}
	return key, ci, run, ok
}

// PeekAction implements sim.ActionSource.
func (cs *compiledSource) PeekAction() (time.Duration, sim.Priority, uint64, bool) {
	key, _, _, ok := cs.pick()
	return key.at, key.pri, key.seq, ok
}

// FireAction implements sim.ActionSource: it executes the earliest
// pending action. The cursor (or run) advances first so handlers that
// inspect the source (fallback, delivery, activation) see a consistent
// state.
func (cs *compiledSource) FireAction() {
	_, ci, run, ok := cs.pick()
	if !ok {
		return
	}
	n := cs.n
	if ci == nil {
		r := &cs.runs[run]
		k := r.cycle
		r.at += phy.CycleLength
		r.seq++
		r.cycle++
		if r.left--; r.left == 0 {
			cs.runs = slices.Delete(cs.runs, run, run+1)
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
