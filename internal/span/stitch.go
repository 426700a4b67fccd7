package span

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"

	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
)

// Stitch folds a recorded trace-event stream into lifecycle traces.
//
// The stitcher leans on the timing contract of the core event stream:
// EventCycleStart fires at the forward cycle start t0 carrying the
// reverse format, slot grants are announced at t0, EventGPSRx fires at
// its slot's start and EventDataRx at its slot's end. Slot intervals
// are reconstructed through core.NewLayout, which makes the δ shift
// between the forward announcement and the reverse slot explicit in the
// resulting spans. Streams with unknown cycle formats (synthetic
// fixtures, filtered captures) degrade gracefully: interval math is
// skipped and the affected spans collapse to zero width instead of
// failing.
func Stitch(events []core.TraceEvent) *Set {
	st := newStitcher()
	st.indexCycles(events)
	for i := range events {
		st.consume(&events[i])
	}
	st.finish()
	return st.set
}

// stitchIgnored lists the event kinds the stitcher deliberately does
// not fold into lifecycle traces: control-frame bookkeeping, grant
// announcements already consumed by indexCycles, and per-slot outcomes
// that carry no span boundary. The traceexhaustive analyzer requires
// every core.EventKind to appear here or in a consume/indexCycles case,
// so a newly added event cannot silently fall out of the span trees.
var stitchIgnored = [...]core.EventKind{
	core.EventCFDecodeFailed,
	core.EventRegistrationRx,
	core.EventRegistered,
	core.EventCollision,
	core.EventDataLost,
	core.EventPageResponse,
	core.EventFormatSwitch,
	core.EventMessageDropped,
	core.EventCF2Listener,
	core.EventForwardSlotGrant,
	core.EventGPSAdmitted,
	core.EventGPSLeft,
}

// cycleInfo is the per-cycle context gathered in the indexing pass. A
// baseline-protocol frame (EventFrameStart) fills baselineSlots instead
// of format: its data slots divide phy.CycleLength evenly rather than
// following a core.Layout.
type cycleInfo struct {
	at            time.Duration
	atKnown       bool
	format        core.ReverseFormat // 0 when unparseable
	baselineSlots int                // >0 for baseline frames
}

// fragSeg is one received data fragment placed on the timeline.
type fragSeg struct {
	cycle, slot                 int
	grantAt, slotStart, slotEnd time.Duration
	format                      core.ReverseFormat
	frag, total                 int
	retx                        bool
}

// msgBuilder accumulates one uplink message lifecycle.
type msgBuilder struct {
	tr          *Trace
	n           int // earlier traces of this user and msgID (see finalizer.begin)
	firstContTx time.Duration
	contCount   int
	demandAt    time.Duration
	hasDemand   bool
	hasCont     bool
	frags       []fragSeg
	partial     bool
}

// gpsBuilder accumulates one GPS report lifecycle; tr is nil when the
// user has no report open.
type gpsBuilder struct {
	tr         *Trace
	lateDetail string
}

// userKey pairs a user with a message ID or a cycle number.
type userKey struct {
	user frame.UserID
	n    int
}

type stitcher struct {
	set      *Set
	cycles   map[int]cycleInfo
	cycleIdx []int           // sorted cycle numbers with known start times
	gpsGrant map[userKey]int // (user, cycle) → GPS slot granted
	layouts  [2]core.Layout  // Format1, Format2; built on first use
	msgs     [1 << 8][]*msgBuilder
	free     []*msgBuilder // builders of completed messages, for reuse
	gps      [1 << 8]gpsBuilder
	gpsSeq   [1 << 8]int
	idSeen   map[userKey]int // (user, msgID) → traces opened
	lastAt   time.Duration
	fin      finalizer
}

func newStitcher() *stitcher {
	return &stitcher{
		set:      &Set{},
		cycles:   make(map[int]cycleInfo),
		gpsGrant: make(map[userKey]int),
		idSeen:   make(map[userKey]int),
	}
}

// indexCycles records each cycle's start time, reverse format and GPS
// grant table before the stitching pass, so slot math and per-cycle
// wait attribution never depend on event lookahead.
func (st *stitcher) indexCycles(events []core.TraceEvent) {
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case core.EventCycleStart:
			ci := st.cycles[e.Cycle]
			if !ci.atKnown {
				ci.at = e.At
				ci.atKnown = true
				st.cycleIdx = append(st.cycleIdx, e.Cycle)
			}
			switch e.Detail {
			case core.Format1.String():
				ci.format = core.Format1
			case core.Format2.String():
				ci.format = core.Format2
			}
			st.cycles[e.Cycle] = ci
		case core.EventFrameStart:
			// Baseline-protocol frame boundary: the frame-level analogue
			// of EventCycleStart, with the data-slot count in Slot.
			ci := st.cycles[e.Cycle]
			if !ci.atKnown {
				ci.at = e.At
				ci.atKnown = true
				st.cycleIdx = append(st.cycleIdx, e.Cycle)
			}
			if e.Slot > 0 {
				ci.baselineSlots = e.Slot
			}
			st.cycles[e.Cycle] = ci
			// A frame-start announces a whole frame, so the stream is
			// known to extend to the frame's end even if no later event
			// survives (e.g. under user sampling, where only this
			// carrier-less boundary event is guaranteed through). Keeping
			// lastAt sampling-invariant keeps unfinished-trace endpoints
			// identical between full and sampled stitches.
			if end := e.At + phy.CycleLength; end > st.lastAt {
				st.lastAt = end
			}
		case core.EventGPSSlotGrant:
			st.gpsGrant[userKey{e.User, e.Cycle}] = e.Slot
		}
		if e.Cycle+1 > st.set.Cycles {
			st.set.Cycles = e.Cycle + 1
		}
	}
	slices.Sort(st.cycleIdx)
}

func (st *stitcher) layout(f core.ReverseFormat) (*core.Layout, bool) {
	if f != core.Format1 && f != core.Format2 {
		return nil, false
	}
	l := &st.layouts[f-core.Format1]
	if l.Format == 0 {
		*l = core.NewLayout(f)
	}
	return l, true
}

func (st *stitcher) consume(e *core.TraceEvent) {
	st.set.Events++
	if e.At > st.lastAt {
		st.lastAt = e.At
	}
	switch e.Kind {
	case core.EventMessageQueued:
		msgID, _ := detailInt(e.Detail, "msg")
		bytes, _ := detailInt(e.Detail, "bytes")
		st.openMsg(e.User, msgID, bytes, e.At)
	case core.EventContentionTx:
		if e.Detail != frame.TypeReservation.String() {
			return // registration attempts precede any traced lifecycle
		}
		for _, b := range st.msgs[e.User] {
			if !b.hasDemand {
				if !b.hasCont {
					b.hasCont = true
					b.firstContTx = e.At
				}
				b.contCount++
				break
			}
		}
	case core.EventReservationRx, core.EventPiggybackRx, core.EventReservationGrant:
		// The base now knows the user's whole queue: every open message
		// without a heard demand is covered by this announcement.
		// EventReservationGrant is the baseline-side form (PRMA slot
		// capture, D-TDMA/RAMA booking, DRMA piggyback, FAMA floor).
		for _, b := range st.msgs[e.User] {
			if !b.hasDemand {
				b.hasDemand = true
				b.demandAt = e.At
			}
		}
	case core.EventDataRx:
		msgID, frag, total, ok := fragDetail(e.Detail)
		if !ok {
			return
		}
		b := st.findMsg(e.User, msgID)
		if b == nil {
			// Message queued before the capture started: synthesize a
			// partial trace anchored at this first observed fragment.
			b = st.openMsg(e.User, msgID, 0, e.At)
			b.partial = true
		}
		seg := st.dataSlotTimes(e.Cycle, e.Slot, e.At)
		seg.frag, seg.total = frag, total
		for i := range b.frags {
			if b.frags[i].frag == frag {
				b.tr.Retx++
				seg.retx = true
				break
			}
		}
		if !b.hasDemand {
			// Served without an observed request (e.g. lump allocation
			// from an earlier piggyback): demand was implicitly known by
			// the granting announcement.
			b.hasDemand = true
			b.demandAt = seg.grantAt
			if b.demandAt < b.tr.Start {
				b.demandAt = b.tr.Start
			}
		}
		if b.partial && seg.grantAt < b.tr.Start {
			b.tr.Start = seg.grantAt
		}
		b.frags = append(b.frags, seg)
	case core.EventMessageComplete:
		msgID, ok := detailInt(e.Detail, "msg")
		if !ok {
			return
		}
		if b := st.findMsg(e.User, msgID); b != nil {
			st.closeMsg(b, e.At, true, "")
			st.free = append(st.free, b)
		}
	case core.EventGPSQueued:
		if e.User == frame.NoUser {
			return
		}
		if b := &st.gps[e.User]; b.tr != nil {
			// No violation event preceded (filtered stream): close the
			// superseded report explicitly rather than leaking it.
			st.closeGPSWait(b, e.At, false, false, "replaced")
		}
		st.openGPS(e.User, e.At)
	case core.EventGPSDeadlineViolation:
		b := &st.gps[e.User]
		if b.tr == nil {
			return
		}
		if strings.HasPrefix(e.Detail, "stale") {
			st.closeGPSWait(b, e.At, true, true, e.Detail)
		} else {
			// "late": the report is transmitting right now; the matching
			// EventGPSRx or EventGPSLost closes the trace.
			b.tr.Violation = true
			b.lateDetail = e.Detail
		}
	case core.EventGPSRx, core.EventGPSLost:
		if b := &st.gps[e.User]; b.tr != nil {
			st.closeGPSServed(b, e)
		}
	}
}

// finish closes every still-open lifecycle at the stream end. It ranges
// over each user's open messages as listed on entry while closeMsg
// removes from that same backing array, so a user left with three or
// more has one closed twice (its trace listed twice) and one never
// closed. The pinned tournament digests include that output.
func (st *stitcher) finish() {
	for u := range st.msgs {
		for _, b := range st.msgs[u] {
			st.closeMsg(b, st.lastAt, false, "unfinished at trace end")
		}
	}
	for u := range st.gps {
		if b := &st.gps[u]; b.tr != nil {
			st.closeGPSWait(b, st.lastAt, false, false, "unfinished at trace end")
		}
	}
	slices.SortStableFunc(st.set.Traces, func(a, b *Trace) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		if a.User != b.User {
			return cmp.Compare(a.User, b.User)
		}
		return strings.Compare(a.ID, b.ID)
	})
}

func (st *stitcher) openMsg(user frame.UserID, msgID, bytes int, at time.Duration) *msgBuilder {
	key := userKey{user, msgID}
	n := st.idSeen[key]
	st.idSeen[key] = n + 1
	var b *msgBuilder
	if k := len(st.free); k > 0 {
		b, st.free = st.free[k-1], st.free[:k-1]
		*b = msgBuilder{frags: b.frags[:0]}
	} else {
		b = &msgBuilder{}
	}
	b.n = n
	b.tr = &Trace{
		Kind:     KindMessage,
		KindName: KindMessage.String(),
		User:     user,
		MsgID:    msgID,
		Bytes:    bytes,
		Start:    at,
	}
	st.msgs[user] = append(st.msgs[user], b)
	return b
}

func (st *stitcher) findMsg(user frame.UserID, msgID int) *msgBuilder {
	for _, b := range st.msgs[user] {
		if b.tr.MsgID == msgID {
			return b
		}
	}
	return nil
}

func (st *stitcher) removeMsg(b *msgBuilder) {
	bs := st.msgs[b.tr.User]
	for i, x := range bs {
		if x == b {
			st.msgs[b.tr.User] = append(bs[:i], bs[i+1:]...)
			return
		}
	}
}

func (st *stitcher) openGPS(user frame.UserID, at time.Duration) {
	seq := st.gpsSeq[user]
	st.gpsSeq[user] = seq + 1
	st.gps[user] = gpsBuilder{
		tr: &Trace{
			Kind:     KindGPS,
			KindName: KindGPS.String(),
			User:     user,
			MsgID:    seq,
			Start:    at,
		},
	}
}

// dataSlotTimes places a data fragment on the timeline. The event's
// Cycle field is the cycle current when the slot *ended*; the last data
// slot of cycle k runs past the start of cycle k+1 (the CF2 overlap),
// so the slot's owning cycle is found by checking which candidate's
// layout reproduces the observed end time exactly.
func (st *stitcher) dataSlotTimes(evCycle, slot int, at time.Duration) fragSeg {
	for _, c := range [...]int{evCycle, evCycle - 1} {
		ci := st.cycles[c]
		if !ci.atKnown {
			continue
		}
		if ci.baselineSlots > 0 {
			// Baseline frame: slots divide the frame evenly and the
			// receipt fires at the slot end. The grant is announced in
			// the frame's reservation phase, i.e. at the frame start.
			if slot < 0 || slot >= ci.baselineSlots {
				continue
			}
			slotDur := phy.CycleLength / time.Duration(ci.baselineSlots)
			start := ci.at + time.Duration(slot)*slotDur
			if start+slotDur == at {
				return fragSeg{
					cycle:     c,
					slot:      slot,
					grantAt:   ci.at,
					slotStart: start,
					slotEnd:   at,
				}
			}
			continue
		}
		l, ok := st.layout(ci.format)
		if !ok || slot < 0 || slot >= len(l.ReverseData) {
			continue
		}
		iv := l.ReverseData[slot]
		if ci.at+iv.End == at {
			return fragSeg{
				cycle:     c,
				slot:      slot,
				grantAt:   ci.at,
				slotStart: ci.at + iv.Start,
				slotEnd:   at,
				format:    ci.format,
			}
		}
	}
	// Unknown format or synthetic stream: degrade to a zero-width slot
	// at the observation time.
	seg := fragSeg{cycle: evCycle, slot: slot, grantAt: at, slotStart: at, slotEnd: at}
	if ci := st.cycles[evCycle]; ci.atKnown && ci.at <= at {
		seg.grantAt = ci.at
		seg.format = ci.format
	}
	return seg
}

// gpsSlotTimes returns the slot interval for a GPS transmission whose
// start time is known (EventGPSRx/EventGPSLost fire at slot start).
func (st *stitcher) gpsSlotTimes(cycle, slot int, start time.Duration) (end time.Duration, format core.ReverseFormat) {
	ci := st.cycles[cycle] // the zero entry of an unknown cycle has no format
	l, ok := st.layout(ci.format)
	if !ok || slot < 0 || slot >= len(l.GPS) {
		return start, ci.format
	}
	return start + l.GPS[slot].Duration(), ci.format
}

// closeMsg finalizes a message trace: root span plus critical-path
// phase spans.
func (st *stitcher) closeMsg(b *msgBuilder, end time.Duration, complete bool, detail string) {
	st.removeMsg(b)
	tr := b.tr
	tr.End = end
	tr.Complete = complete
	if end < tr.Start {
		tr.End = tr.Start
	}

	f := st.fin.begin(tr, b.n)
	slices.SortStableFunc(b.frags, func(x, y fragSeg) int { return cmp.Compare(x.slotStart, y.slotStart) })

	cursor := tr.Start
	if b.hasDemand && b.demandAt > cursor {
		if b.hasCont && b.firstContTx < b.demandAt {
			if b.firstContTx > cursor {
				f.add(PhaseQueueWait, cursor, b.firstContTx, -1, -1, "", "")
			}
			from := b.firstContTx
			if from < cursor {
				from = cursor
			}
			f.arena = f.arena.num(b.contCount).str(" reservation attempt(s)")
			f.add(PhaseContention, from, b.demandAt, -1, -1, "", "")
		} else {
			f.add(PhaseQueueWait, cursor, b.demandAt, -1, -1, "", "")
		}
		cursor = b.demandAt
	}
	for _, seg := range b.frags {
		if seg.grantAt > cursor {
			f.add(PhaseCFWait, cursor, seg.grantAt, seg.cycle, -1, "", "")
			cursor = seg.grantAt
		}
		if seg.slotStart > cursor {
			f.add(PhaseSlotWait, cursor, seg.slotStart, seg.cycle, seg.slot, formatName(seg.format), "")
			cursor = seg.slotStart
		}
		if seg.slotEnd > cursor {
			f.arena = f.arena.str("frag ").num(seg.frag).str("/").num(seg.total)
			if seg.retx {
				f.arena = f.arena.str(" (retx)")
			}
			f.add(PhaseAirtime, cursor, seg.slotEnd, seg.cycle, seg.slot, formatName(seg.format), "")
			cursor = seg.slotEnd
		}
	}
	if tr.End > cursor {
		f.add(PhaseCFWait, cursor, tr.End, -1, -1, "", "awaiting further grants")
	}
	if complete {
		f.add(PhaseDecode, tr.End, tr.End, -1, -1, "", "rs decode + reassembly")
	}

	partial := ""
	if b.partial {
		partial = "queued before capture start"
	}
	f.seal(detail, partial)
	st.set.Traces = append(st.set.Traces, tr)
}

// closeGPSServed finalizes a GPS report that reached its slot: received
// (EventGPSRx) or lost on air (EventGPSLost). e.At is the slot start.
func (st *stitcher) closeGPSServed(b *gpsBuilder, e *core.TraceEvent) {
	tr := b.tr
	b.tr = nil
	complete := e.Kind == core.EventGPSRx
	slotStart := e.At
	slotEnd, format := st.gpsSlotTimes(e.Cycle, e.Slot, slotStart)
	tr.End = slotEnd
	tr.Complete = complete

	f := st.fin.begin(tr, 0)
	cursor := tr.Start
	if ci := st.cycles[e.Cycle]; ci.atKnown && ci.at > cursor && ci.at < slotStart {
		// The report waited through earlier cycles: attribute each one,
		// then hand over to the serving cycle's announcement.
		if moved := st.addGPSWaitSegments(f, tr.User, cursor, ci.at); moved > cursor {
			cursor = moved
		}
	}
	if slotStart > cursor {
		f.add(PhaseSlotWait, cursor, slotStart, e.Cycle, e.Slot, formatName(format), "")
	}
	if slotEnd > slotStart {
		f.add(PhaseAirtime, slotStart, slotEnd, e.Cycle, e.Slot, formatName(format), "")
	}
	if complete {
		f.add(PhaseDecode, slotEnd, slotEnd, -1, -1, "", "report decode")
	} else {
		f.arena = f.arena.str("lost on air: ")
	}
	f.seal(e.Detail, b.lateDetail)
	st.set.Traces = append(st.set.Traces, tr)
}

// closeGPSWait finalizes a GPS report that never transmitted (stale
// replacement or stream end): the whole window is wait time, attributed
// cycle by cycle.
func (st *stitcher) closeGPSWait(b *gpsBuilder, end time.Duration, violation, stale bool, detail string) {
	tr := b.tr
	b.tr = nil
	tr.End = end
	tr.Complete = false
	tr.Violation = tr.Violation || violation
	tr.Stale = stale
	if tr.End < tr.Start {
		tr.End = tr.Start
	}

	f := st.fin.begin(tr, 0)
	cursor := st.addGPSWaitSegments(f, tr.User, tr.Start, tr.End)
	if tr.End > cursor {
		f.add(PhaseCFWait, cursor, tr.End, -1, -1, "", "no cycle information")
	}
	f.seal(detail, "")
	st.set.Traces = append(st.set.Traces, tr)
}

// addGPSWaitSegments attributes [from, to) of a waiting GPS report to
// phases, one segment per notification cycle: slot-wait when the user
// held a GPS grant that cycle (annotated with why the slot was
// unreachable), cf-wait when it held none. Returns the new cursor.
func (st *stitcher) addGPSWaitSegments(f *finalizer, user frame.UserID, from, to time.Duration) time.Duration {
	if to <= from || len(st.cycleIdx) == 0 {
		return from
	}
	// Find the cycle containing `from`.
	i := sort.Search(len(st.cycleIdx), func(i int) bool {
		return st.cycles[st.cycleIdx[i]].at > from
	}) - 1
	if i < 0 {
		i = 0
	}
	cursor := from
	for ; i < len(st.cycleIdx) && cursor < to; i++ {
		c := st.cycleIdx[i]
		ci := st.cycles[c]
		if ci.at >= to {
			break
		}
		segEnd := to
		if i+1 < len(st.cycleIdx) {
			if next := st.cycles[st.cycleIdx[i+1]].at; next < segEnd {
				segEnd = next
			}
		}
		if segEnd <= cursor {
			continue
		}
		slot, granted := st.gpsGrant[userKey{user, c}]
		if !granted {
			f.add(PhaseCFWait, cursor, segEnd, c, -1, "", "no GPS slot granted this cycle")
			cursor = segEnd
			continue
		}
		if l, ok := st.layout(ci.format); ok && slot < len(l.GPS) {
			slotStart := ci.at + l.GPS[slot].Start
			switch {
			case slotStart < cursor:
				f.arena = f.arena.str("slot ").num(slot).str(" opened ").str((cursor - slotStart).String()).str(" before the report arrived")
			case slotStart >= to:
				f.arena = f.arena.str("slot ").num(slot).str(" opens ").str((slotStart - to).String()).str(" after the report was replaced")
			}
		}
		f.add(PhaseSlotWait, cursor, segEnd, c, slot, formatName(ci.format), "granted slot unused")
		cursor = segEnd
	}
	return cursor
}

// finalizer assembles a trace's span slice: a root covering the whole
// lifecycle and one child per critical-path segment. Every span ID and
// rendered detail is built in arena, which seal turns into the trace's
// one string; the spans' ID and detail fields are substrings of it.
// The stitcher keeps one finalizer and reuses its buffers across traces.
type finalizer struct {
	tr     *Trace
	arena  arena
	idLen  int // the trace ID is arena[:idLen], the root span ID follows it
	mark   int // arena length after the latest span ID
	phases []pendingSpan
	counts [phaseCount]int
}

// pendingSpan is a phase span whose SpanID is still arena[lo:hi]; text
// rendered between the previous span ID and lo is its detail.
type pendingSpan struct {
	Span
	lo, hi int
}

// begin resets f for tr and renders the trace ID and root span ID. The
// ID scheme (DESIGN §7) is "u<user>-m<msgID>" / "u<user>-g<seq>"; n
// counts earlier traces of the same user and msgID (uint16 wrap on very
// long runs) and, when nonzero, follows as "#<n>".
func (f *finalizer) begin(tr *Trace, n int) *finalizer {
	f.tr = tr
	f.phases = f.phases[:0]
	f.counts = [phaseCount]int{}
	tag := "-m"
	if tr.Kind == KindGPS {
		tag = "-g"
	}
	f.arena = f.arena[:0].str("u").num(int(tr.User)).str(tag).num(tr.MsgID)
	if n != 0 {
		f.arena = f.arena.str("#").num(n)
	}
	f.idLen = len(f.arena)
	f.arena = f.arena.str(":root")
	f.mark = len(f.arena)
	return f
}

// add appends a phase span; cycle and slot are -1 when unknown. Text
// the caller rendered into f.arena since the previous span is its
// detail, or else detail is.
func (f *finalizer) add(p Phase, start, end time.Duration, cycle, slot int, format, detail string) {
	if end < start {
		f.arena = f.arena[:f.mark]
		return
	}
	lo := len(f.arena)
	i := f.counts[p]
	f.counts[p]++
	f.arena = append(f.arena, f.arena[:f.idLen]...).str(":").str(p.String()).str("-").num(i)
	f.phases = append(f.phases, pendingSpan{
		Span: Span{
			Name:      p.String(),
			Phase:     p,
			PhaseName: p.String(),
			Start:     start,
			End:       end,
			Cycle:     cycle,
			Slot:      slot,
			Format:    format,
			Detail:    detail,
		},
		lo: lo,
		hi: len(f.arena),
	})
	f.mark = len(f.arena)
}

// seal renders the root span, whose detail is the text rendered since
// the last phase span, then detail, then extra (after "; " when the
// detail so far is not empty). It converts the arena to the trace's
// string and installs the span slice with the root first.
func (f *finalizer) seal(detail, extra string) {
	tr := f.tr
	f.arena = f.arena.str(detail)
	if extra != "" {
		if len(f.arena) > f.mark {
			f.arena = f.arena.str("; ")
		}
		f.arena = f.arena.str(extra)
	}
	name := len(f.arena)
	if tr.Kind == KindGPS {
		f.arena = f.arena.str("gps ").num(tr.MsgID)
	} else if f.arena = f.arena.str("msg ").num(tr.MsgID); tr.Bytes > 0 {
		f.arena = f.arena.str(" (").num(tr.Bytes).str("B)")
	}

	s := string(f.arena)
	tr.ID = s[:f.idLen]
	root := s[:f.idLen+len(":root")]
	spans := make([]Span, 1+len(f.phases))
	spans[0] = Span{
		TraceID: tr.ID,
		SpanID:  root,
		Name:    s[name:],
		User:    tr.User,
		Start:   tr.Start,
		End:     tr.End,
		Cycle:   -1,
		Slot:    -1,
		Retx:    tr.Retx,
		Detail:  s[f.mark:name],
	}
	prev := len(root)
	for i := range f.phases {
		p := &f.phases[i]
		sp := &spans[i+1]
		*sp = p.Span
		sp.TraceID, sp.SpanID, sp.ParentID, sp.User = tr.ID, s[p.lo:p.hi], root, tr.User
		if p.lo > prev {
			sp.Detail = s[prev:p.lo]
		}
		prev = p.hi
	}
	tr.Spans = spans
}

// arena is a trace's text under construction; str and num append.
type arena []byte

func (a arena) str(s string) arena { return append(a, s...) }
func (a arena) num(v int) arena    { return strconv.AppendInt(a, int64(v), 10) }

func formatName(f core.ReverseFormat) string {
	if f == core.Format1 || f == core.Format2 {
		return f.String()
	}
	return ""
}

// detailInt scans a "key=<int>" token out of an event detail string;
// tokens are separated by Unicode white space. It and fragDetail accept
// exactly what the equivalent fmt.Sscanf calls accept, which
// FuzzStitchDetail checks.
func detailInt(detail, key string) (int, bool) {
	for detail != "" {
		tok := detail
		if i := strings.IndexFunc(detail, unicode.IsSpace); i >= 0 {
			tok, detail = detail[:i], strings.TrimLeftFunc(detail[i:], unicode.IsSpace)
		} else {
			detail = ""
		}
		if len(tok) > len(key) && tok[len(key)] == '=' && strings.HasPrefix(tok, key) {
			if v, _, ok := scanInt(tok[len(key)+1:], true); ok {
				return v, true
			}
		}
	}
	return 0, false
}

// fragDetail parses a data-rx detail, "msg=<id> frag=<i>/<n>". Like
// fmt.Sscanf it allows blanks before each number and more than one
// between the fields, and ignores trailing text.
func fragDetail(detail string) (msg, frag, total int, ok bool) {
	s, ok := strings.CutPrefix(detail, "msg=")
	msg, s, ok = scanInt(s, ok)
	fields := strings.TrimLeftFunc(s, isBlank)
	ok = ok && len(fields) < len(s) // at least one blank between the fields
	s, cut := strings.CutPrefix(fields, "frag=")
	frag, s, ok = scanInt(s, ok && cut)
	s, cut = strings.CutPrefix(s, "/")
	total, _, ok = scanInt(s, ok && cut)
	if !ok {
		return 0, 0, 0, false
	}
	return msg, frag, total, true
}

// scanInt reads an integer the way fmt's %d verb does: blanks skipped,
// an optional sign, then ASCII digits that must fit an int. It returns
// the value, what follows the digits and whether it succeeded; it fails
// at once when ok is false, so parses chain.
func scanInt(s string, ok bool) (int, string, bool) {
	if !ok {
		return 0, s, false
	}
	s = strings.TrimLeftFunc(s, isBlank)
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	j := i
	for j < len(s) && '0' <= s[j] && s[j] <= '9' {
		j++
	}
	if j == i {
		return 0, s, false
	}
	v, err := strconv.Atoi(s[:j])
	return v, s[j:], err == nil
}

// isBlank is fmt's scanning white space without newline, which
// fmt.Sscanf refuses to skip.
func isBlank(r rune) bool { return r != '\n' && unicode.IsSpace(r) }
