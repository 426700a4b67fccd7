package core

import (
	"slices"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
)

// SubscriberState is the lifecycle of a mobile subscriber.
type SubscriberState int

// A subscriber is Idle before it enters the cell, Registering while it
// persists with registration attempts, and Active once admitted.
const (
	StateIdle SubscriberState = iota + 1
	StateRegistering
	StateActive
)

// String implements fmt.Stringer.
func (s SubscriberState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRegistering:
		return "registering"
	case StateActive:
		return "active"
	default:
		return "state?"
	}
}

// fragment is one queued MAC payload of an application message. Its
// fields have their on-air widths: index and total are the header's
// 8-bit Frag and FragTotal, and size is at most frame.MaxPayload.
type fragment struct {
	msgID uint16
	index uint8
	total uint8
	size  uint8
}

// fragQueue is a FIFO of fragments that can also take a fragment back
// at its head, where a retransmission goes. It is a ring whose length
// is a power of two (or zero); it grows by doubling, so a subscriber
// allocates only when its backlog reaches a new high.
type fragQueue struct {
	ring []fragment
	head int
	n    int
}

func (q *fragQueue) len() int { return q.n }

// reset empties the queue, keeping its storage.
func (q *fragQueue) reset() { q.head, q.n = 0, 0 }

func (q *fragQueue) pushBack(f fragment) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = f
	q.n++
}

func (q *fragQueue) pushFront(f fragment) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.ring) - 1)
	q.ring[q.head] = f
	q.n++
}

func (q *fragQueue) popFront() (fragment, bool) {
	if q.n == 0 {
		return fragment{}, false
	}
	f := q.ring[q.head]
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return f, true
}

// grow doubles the ring (to 8 entries at first), unrolling it so the
// head lands at index 0.
func (q *fragQueue) grow() {
	size := max(8, 2*len(q.ring))
	grown := slices.Grow(q.ring[:0:0], size)
	grown = append(grown, q.ring[q.head:]...)
	grown = append(grown, q.ring[:q.head]...)
	q.ring, q.head = grown[:size], 0
}

// contentionRecord remembers a contention-slot transmission awaiting its
// ACK. kind is zero when none is outstanding.
type contentionRecord struct {
	kind     frame.PacketType
	slot     int
	frag     fragment // for data-in-contention
	more     uint8    // piggybacked request
	reqSlots uint8    // explicit reservation size
}

// slotRecord remembers a scheduled data-slot transmission awaiting ACK.
type slotRecord struct {
	frag fragment
	more uint8
	sent bool
}

// Subscriber is one mobile unit's MAC state machine. All methods run in
// the simulation event loop; the type is not safe for concurrent use.
type Subscriber struct {
	// EIN is the unit's permanent equipment number.
	EIN frame.EIN
	// IsGPS selects the real-time service class.
	IsGPS bool

	cfg *Config
	rng *sim.RNG

	state SubscriberState
	id    frame.UserID

	// Registration progress.
	regAttempts   int
	regFirstCycle int
	regGaveUp     bool

	// Data queue.
	pending   fragQueue
	nextMsgID uint16

	// Reservation bookkeeping.
	requestedOutstanding int
	backoffCycles        int
	contFailures         int
	needSince            time.Duration
	hasNeed              bool

	// Listening rule (paper §3.4 problem 2).
	listenCF2 bool

	// In-flight transmissions awaiting next cycle's ACKs, by reverse
	// data slot.
	sentSlots   [frame.ReverseScheduleEntries]slotRecord
	sentContend contentionRecord

	// GPS report pending transmission.
	gpsArrival time.Duration
	gpsSeq     uint16
	gpsHave    bool

	// Downlink reassembly, by message ID.
	asm map[uint16]asmState

	// Pages observed (paper's paging field).
	PagesSeen int

	pageResponseDue bool

	// planSlots and contSlots are per-cycle scratch so planning
	// allocates nothing: a CyclePlan's DataSlots alias planSlots and
	// stay valid until the next OnControlFields call replaces the plan.
	planSlots [frame.ReverseScheduleEntries]int
	contSlots [frame.ReverseScheduleEntries]int
}

// NewSubscriber builds a subscriber in the Idle state.
func NewSubscriber(ein frame.EIN, isGPS bool, cfg *Config, rng *sim.RNG) *Subscriber {
	return &Subscriber{
		EIN:   ein,
		IsGPS: isGPS,
		cfg:   cfg,
		rng:   rng,
		state: StateIdle,
		id:    frame.NoUser,
		asm:   make(map[uint16]asmState),
	}
}

// State returns the lifecycle state.
func (s *Subscriber) State() SubscriberState { return s.state }

// ID returns the assigned user ID (frame.NoUser before registration).
func (s *Subscriber) ID() frame.UserID { return s.id }

// QueueLen returns the number of fragments awaiting transmission.
func (s *Subscriber) QueueLen() int { return s.pending.len() }

// NextMsgID returns the message ID the next AddMessage call will use.
func (s *Subscriber) NextMsgID() uint16 { return s.nextMsgID }

// ListensCF2 reports whether the subscriber will read the second
// control-field set next cycle.
func (s *Subscriber) ListensCF2() bool { return s.listenCF2 }

// GaveUp reports whether registration exhausted its attempts.
func (s *Subscriber) GaveUp() bool { return s.regGaveUp }

// Enter moves an Idle subscriber to Registering; cycle is the current
// notification cycle index (for registration-latency accounting).
func (s *Subscriber) Enter(cycle int) {
	if s.state != StateIdle {
		return
	}
	s.state = StateRegistering
	s.regAttempts = 0
	s.regFirstCycle = cycle
	s.regGaveUp = false
}

// Deactivate administratively signs the subscriber off (the harness
// deregisters it at the base in the same step).
func (s *Subscriber) Deactivate() {
	s.state = StateIdle
	s.id = frame.NoUser
	s.pending.reset()
	s.requestedOutstanding = 0
	s.sentSlots = [frame.ReverseScheduleEntries]slotRecord{}
	s.sentContend = contentionRecord{}
	s.listenCF2 = false
	s.gpsHave = false
	s.hasNeed = false
}

// AddMessage enqueues an application message, fragmenting it. It
// reports false when the queue cap drops the message (buffer overflow).
func (s *Subscriber) AddMessage(size int, now time.Duration) bool {
	frags := fragmentCount(size)
	if s.pending.len()+frags > s.cfg.QueueCapFragments {
		return false
	}
	id := s.nextMsgID
	s.nextMsgID++
	for i := 0; i < frags; i++ {
		s.pending.pushBack(fragment{
			msgID: id,
			index: uint8(i),
			total: uint8(frags),
			size:  uint8(fragmentSize(size, i)),
		})
	}
	if !s.hasNeed && s.unrequested() > 0 {
		s.hasNeed = true
		s.needSince = now
	}
	return true
}

// AddGPSReport records the periodic location report arrival. It reports
// false when a previous report was still pending (it is replaced —
// GPS packets are never retransmitted or queued).
func (s *Subscriber) AddGPSReport(now time.Duration) bool {
	had := s.gpsHave
	s.gpsArrival = now
	s.gpsHave = true
	return !had
}

// unrequested returns the demand not yet signalled to the base station.
func (s *Subscriber) unrequested() int {
	n := s.pending.len() - s.requestedOutstanding
	if n < 0 {
		return 0
	}
	return n
}

// NeedSince exposes the start of the current unsatisfied-demand period,
// for reservation-latency measurement. ok is false when no demand is
// waiting.
func (s *Subscriber) NeedSince() (time.Duration, bool) {
	return s.needSince, s.hasNeed
}

// ClearNeed marks the pending demand as known to the base station.
func (s *Subscriber) ClearNeed() { s.hasNeed = false }

// CyclePlan is what a subscriber intends to transmit this cycle, derived
// from the control fields it decoded.
type CyclePlan struct {
	// GPSSlot is the reverse GPS slot to transmit in, or -1.
	GPSSlot int
	// DataSlots are the reverse data slots assigned to this subscriber.
	DataSlots []int
	// ContentionSlot is the chosen contention slot, or -1.
	ContentionSlot int
	// ContentionKind is what will be sent there.
	ContentionKind frame.PacketType
}

// OnCycleNoSchedule is invoked when the subscriber failed to decode its
// control fields (or was not listening): it transmits nothing this
// cycle. In-flight ACK state is resolved pessimistically: unacked
// fragments are requeued (the base deduplicates).
func (s *Subscriber) OnCycleNoSchedule() CyclePlan {
	s.resolveAcks(nil)
	s.listenCF2 = false
	return CyclePlan{GPSSlot: -1, ContentionSlot: -1}
}

// OnControlFields processes a decoded control-field set and plans the
// cycle's transmissions.
func (s *Subscriber) OnControlFields(cf *frame.ControlFields, layout Layout, now time.Duration) CyclePlan {
	plan := CyclePlan{GPSSlot: -1, ContentionSlot: -1}
	wasCF2 := s.listenCF2
	s.listenCF2 = false

	s.resolveAcks(cf)

	switch s.state {
	case StateIdle:
		return plan
	case StateRegistering:
		// resolveAcks may have just activated us; otherwise persist
		// (paper §3.2: registrants retry every cycle, no backoff).
		if s.regAttempts >= s.cfg.MaxRegistrationAttempts {
			s.regGaveUp = true
			s.state = StateIdle
			return plan
		}
		slot := s.pickContentionSlot(cf, layout, wasCF2)
		if slot >= 0 {
			s.regAttempts++
			plan.ContentionSlot = slot
			plan.ContentionKind = frame.TypeRegistration
			s.sentContend = contentionRecord{slot: slot, kind: frame.TypeRegistration}
			if slot == layout.LastDataSlot() && s.cfg.SecondControlField {
				s.listenCF2 = true
			}
		}
		return plan
	}

	// Active: GPS service class.
	if s.IsGPS {
		for i, u := range cf.GPSSchedule {
			if u == s.id && i < len(layout.GPS) {
				plan.GPSSlot = i
				break
			}
		}
		return plan
	}

	// Active data user: collect granted slots (into the scratch array;
	// an empty plan keeps DataSlots nil).
	ds := s.planSlots[:0]
	for i, u := range cf.ReverseSchedule {
		if u == s.id && i < len(layout.ReverseData) {
			ds = append(ds, i)
		}
	}
	if len(ds) > 0 {
		plan.DataSlots = ds
	}
	if n := len(plan.DataSlots); n > 0 && s.requestedOutstanding > 0 {
		s.requestedOutstanding -= n
		if s.requestedOutstanding < 0 {
			s.requestedOutstanding = 0
		}
	}
	if len(plan.DataSlots) > 0 && s.cfg.SecondControlField {
		if last := layout.LastDataSlot(); plan.DataSlots[len(plan.DataSlots)-1] == last {
			s.listenCF2 = true
		}
	}

	// Contention: only when demand cannot be piggybacked.
	if s.backoffCycles > 0 {
		s.backoffCycles--
		return plan
	}
	if len(plan.DataSlots) == 0 && s.unrequested() > 0 && s.sentContend.kind == 0 {
		slot := s.pickContentionSlot(cf, layout, wasCF2)
		if slot >= 0 {
			plan.ContentionSlot = slot
			rec := contentionRecord{slot: slot}
			switch s.cfg.Policy {
			case ReserveWithData:
				if f, ok := s.pending.popFront(); ok {
					rec.kind = frame.TypeData
					rec.frag = f
					rec.more = s.clampMore(s.unrequested())
					plan.ContentionKind = frame.TypeData
				} else {
					rec.kind = frame.TypeReservation
					rec.reqSlots = s.clampMore(s.unrequested())
					plan.ContentionKind = frame.TypeReservation
				}
			default:
				rec.kind = frame.TypeReservation
				rec.reqSlots = s.clampMore(s.unrequested())
				plan.ContentionKind = frame.TypeReservation
			}
			s.sentContend = rec
			if slot == layout.LastDataSlot() && s.cfg.SecondControlField {
				s.listenCF2 = true
			}
		}
	}
	// Page response: an otherwise silent subscriber answers its page
	// with a zero-slot reservation in a contention slot.
	if s.pageResponseDue && plan.ContentionSlot < 0 && len(plan.DataSlots) == 0 && s.backoffCycles == 0 {
		if slot := s.pickContentionSlot(cf, layout, wasCF2); slot >= 0 {
			plan.ContentionSlot = slot
			plan.ContentionKind = frame.TypeReservation
			s.sentContend = contentionRecord{slot: slot, kind: frame.TypeReservation, reqSlots: 0}
			if slot == layout.LastDataSlot() && s.cfg.SecondControlField {
				s.listenCF2 = true
			}
		}
	}
	if s.pageResponseDue && (len(plan.DataSlots) > 0 || plan.ContentionSlot >= 0) {
		// Any uplink transmission this cycle answers the page.
		s.pageResponseDue = false
	}
	// Restart the reservation-latency clock if demand is still waiting
	// after a lost request.
	if !s.hasNeed && s.unrequested() > 0 && len(plan.DataSlots) == 0 {
		s.hasNeed = true
		s.needSince = now
	}
	return plan
}

// resolveAcks settles last cycle's in-flight transmissions against the
// received ACK vector (nil = control fields lost: assume failure).
func (s *Subscriber) resolveAcks(cf *frame.ControlFields) {
	// Scheduled data slots, in ascending slot order: requeue order must
	// be deterministic (map iteration order would randomize which lost
	// fragment retransmits first when a cycle loses several slots).
	for slot := range s.sentSlots {
		rec := &s.sentSlots[slot]
		if !rec.sent {
			continue
		}
		acked := cf != nil && slot < len(cf.ReverseACKs) && cf.ReverseACKs[slot].User == s.id
		if acked {
			s.requestedOutstanding += int(rec.more)
		} else {
			// Lost: requeue the fragment for retransmission.
			s.pending.pushFront(rec.frag)
		}
		rec.sent = false
	}

	// Contention transmission.
	if rec := s.sentContend; rec.kind != 0 {
		s.sentContend = contentionRecord{}
		var ack frame.ReverseACK
		ok := cf != nil && rec.slot < len(cf.ReverseACKs)
		if ok {
			ack = cf.ReverseACKs[rec.slot]
		}
		switch rec.kind {
		case frame.TypeRegistration:
			if ok && ack.EIN == s.EIN && ack.User.Valid() {
				s.id = ack.User
				s.state = StateActive
			}
			// Registrants persist without backoff (paper §3.2).
		case frame.TypeReservation:
			if ok && ack.User == s.id {
				s.requestedOutstanding += int(rec.reqSlots)
				s.contFailures = 0
			} else {
				s.contFailures++
				s.backoffCycles = s.rng.UniformInt(1, s.spread(s.cfg.ReservationBackoffCycles))
			}
		case frame.TypeData:
			if ok && ack.User == s.id {
				s.requestedOutstanding += int(rec.more)
				s.contFailures = 0
			} else {
				s.pending.pushFront(rec.frag)
				// Data senders back off longer (paper §3.1).
				s.contFailures++
				s.backoffCycles = s.rng.UniformInt(1, s.spread(2*s.cfg.ReservationBackoffCycles))
			}
		}
	}
}

// pickContentionSlot chooses uniformly among usable contention slots.
// A CF2 listener cannot transmit before CF2 ends plus the switch guard.
func (s *Subscriber) pickContentionSlot(cf *frame.ControlFields, layout Layout, wasCF2 bool) int {
	usable := s.contSlots[:0]
	for slot, u := range cf.ReverseSchedule {
		if u != frame.NoUser || slot >= len(layout.ReverseData) {
			continue
		}
		if !s.cfg.SecondControlField && slot == layout.LastDataSlot() {
			// Without CF2, a last-slot contender could never learn the
			// outcome (the paper's rejected single-CF alternative).
			continue
		}
		if wasCF2 {
			minStart := layout.CF2.End + s.cfg.switchGuard()
			if layout.ReverseData[slot].Start < minStart {
				continue
			}
		}
		usable = append(usable, slot)
	}
	if len(usable) == 0 {
		return -1
	}
	return usable[s.rng.Intn(len(usable))]
}

// MakeDataPacket pops the next fragment for transmission in a scheduled
// data slot, piggybacking outstanding demand. It returns nil when the
// queue is empty (the slot goes idle).
func (s *Subscriber) MakeDataPacket(slot int) *frame.DataPacket {
	pkt := &frame.DataPacket{}
	if !s.MakeDataPacketInto(slot, pkt, make([]byte, frame.MaxPayload)) {
		return nil
	}
	return pkt
}

// MakeDataPacketInto is the allocation-free form of MakeDataPacket: it
// fills a caller-owned packet, slicing the payload out of a caller-owned
// zeroed buffer of at least frame.MaxPayload bytes. It reports false
// when the queue is empty.
func (s *Subscriber) MakeDataPacketInto(slot int, pkt *frame.DataPacket, payload []byte) bool {
	f, ok := s.pending.popFront()
	if !ok {
		return false
	}
	more := s.clampMore(s.unrequested())
	s.sentSlots[slot] = slotRecord{frag: f, more: more, sent: true}
	pkt.Header = frame.DataHeader{
		User:      s.id,
		MoreSlots: more,
		MsgID:     f.msgID,
		Frag:      f.index,
		FragTotal: f.total,
	}
	pkt.Payload = payload[:f.size]
	return true
}

// MakeContentionPacket appends the 48 information bytes of the planned
// contention transmission to dst and returns the extended slice. It
// returns dst unchanged when no contention transmission is planned.
func (s *Subscriber) MakeContentionPacket(dst []byte) ([]byte, error) {
	rec := &s.sentContend
	switch rec.kind {
	case frame.TypeRegistration:
		req := frame.RegistrationRequest{EIN: s.EIN, WantGPS: s.IsGPS}
		return req.MarshalTo(dst)
	case frame.TypeReservation:
		req := frame.ReservationRequest{User: s.id, Slots: rec.reqSlots}
		return req.MarshalTo(dst)
	case frame.TypeData:
		var zeros [frame.MaxPayload]byte // the simulated payload bytes
		pkt := frame.DataPacket{
			Header: frame.DataHeader{
				User:      s.id,
				MoreSlots: rec.more,
				MsgID:     rec.frag.msgID,
				Frag:      rec.frag.index,
				FragTotal: rec.frag.total,
			},
			Payload: zeros[:rec.frag.size],
		}
		return pkt.MarshalTo(dst)
	default:
		return dst, nil
	}
}

// GPSPendingSince reports whether a location report is waiting and when
// it arrived.
func (s *Subscriber) GPSPendingSince() (time.Duration, bool) {
	return s.gpsArrival, s.gpsHave
}

// MakeGPSReport builds the pending location report, returning its
// arrival time for access-delay accounting; ok is false when none is
// pending.
func (s *Subscriber) MakeGPSReport() (rep *frame.GPSReport, arrival time.Duration, ok bool) {
	rep = &frame.GPSReport{}
	arrival, ok = s.MakeGPSReportInto(rep)
	if !ok {
		return nil, 0, false
	}
	return rep, arrival, true
}

// MakeGPSReportInto is the allocation-free form of MakeGPSReport: it
// fills a caller-owned report struct.
func (s *Subscriber) MakeGPSReportInto(rep *frame.GPSReport) (arrival time.Duration, ok bool) {
	if !s.gpsHave {
		return 0, false
	}
	s.gpsHave = false
	seq := s.gpsSeq
	s.gpsSeq++
	rep.User = s.id
	rep.Sequence = seq
	rep.Latitude = uint32(seq*37) % (1 << 24)
	rep.Longitude = uint32(seq*91) % (1 << 24)
	return s.gpsArrival, true
}

// ReceiveForward processes a downlink data packet addressed to this
// subscriber; it returns (complete, msgID, totalBytes) when a message
// reassembly finishes.
func (s *Subscriber) ReceiveForward(p *frame.DataPacket) (bool, uint16, int) {
	h := p.Header
	if h.FragTotal == 0 {
		return false, 0, 0
	}
	st, ok := s.asm[h.MsgID]
	if !ok {
		st = asmState{total: h.FragTotal}
	}
	dup, done := st.add(h.Frag, len(p.Payload))
	switch {
	case dup:
		return false, 0, 0
	case done:
		delete(s.asm, h.MsgID)
		return true, h.MsgID, int(st.bytes)
	}
	s.asm[h.MsgID] = st
	return false, 0, 0
}

// ObservePaging counts pages addressed to this subscriber and arms a
// page response: an idle-but-registered subscriber answers the base
// station through a contention slot so it can be located (paper §3.1).
func (s *Subscriber) ObservePaging(cf *frame.ControlFields) {
	for _, u := range cf.Paging {
		if u != frame.NoUser && u == s.id {
			s.PagesSeen++
			s.pageResponseDue = true
		}
	}
}

// RegistrationCycles returns how many cycles registration has been
// running, counted from the first attempt to the given cycle inclusive.
func (s *Subscriber) RegistrationCycles(cycle int) int {
	return cycle - s.regFirstCycle + 1
}

// spread widens the backoff window exponentially with consecutive
// contention failures, de-synchronizing repeat colliders.
func (s *Subscriber) spread(base int) int {
	shift := s.contFailures - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 3 {
		shift = 3
	}
	return base << uint(shift)
}

// clampMore bounds a slot request to the header's 4-bit MoreSlots field.
func (s *Subscriber) clampMore(n int) uint8 {
	return uint8(max(0, min(frame.MaxMoreSlots, n)))
}

// switchGuard returns the radio turnaround time.
func (c *Config) switchGuard() time.Duration {
	return phy.HalfDuplexSwitch
}
