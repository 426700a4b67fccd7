package core

import (
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/sim"
)

func newTestSub(t *testing.T, isGPS bool, mutate func(*Config)) *Subscriber {
	t.Helper()
	cfg := NewConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewSubscriber(500, isGPS, &cfg, sim.NewRNG(3))
}

// cfWith builds control fields with the given reverse schedule entries.
func cfWith(rev map[int]frame.UserID) *frame.ControlFields {
	cf := frame.NewControlFields()
	for i, u := range rev {
		cf.ReverseSchedule[i] = u
	}
	return cf
}

func TestSubscriberLifecycle(t *testing.T) {
	s := newTestSub(t, false, nil)
	if s.State() != StateIdle {
		t.Fatal("fresh subscriber not idle")
	}
	s.Enter(0)
	if s.State() != StateRegistering {
		t.Fatal("Enter did not start registration")
	}
	s.Enter(5) // no-op while registering
	if s.State() != StateRegistering {
		t.Fatal("double Enter changed state")
	}

	// First CF: plans a registration attempt in a contention slot.
	layout := NewLayout(Format2)
	plan := s.OnControlFields(frame.NewControlFields(), layout, 0)
	if plan.ContentionSlot < 0 || plan.ContentionKind != frame.TypeRegistration {
		t.Fatalf("plan = %+v", plan)
	}

	// Base approves: ACK carries (EIN, assigned ID) at the used slot.
	cf := frame.NewControlFields()
	cf.ReverseACKs[plan.ContentionSlot] = frame.ReverseACK{User: 9, EIN: 500}
	s.OnControlFields(cf, layout, 0)
	if s.State() != StateActive || s.ID() != 9 {
		t.Fatalf("state %v id %v after approval", s.State(), s.ID())
	}
}

func TestSubscriberRegistrationPersists(t *testing.T) {
	s := newTestSub(t, false, nil)
	s.Enter(0)
	layout := NewLayout(Format2)
	for i := 0; i < 5; i++ {
		plan := s.OnControlFields(frame.NewControlFields(), layout, 0)
		if plan.ContentionSlot < 0 {
			t.Fatalf("attempt %d: registrant did not contend (no backoff allowed)", i)
		}
	}
	if s.State() != StateRegistering {
		t.Fatal("registrant gave up early")
	}
}

func TestSubscriberRegistrationGivesUp(t *testing.T) {
	s := newTestSub(t, false, func(c *Config) { c.MaxRegistrationAttempts = 3 })
	s.Enter(0)
	layout := NewLayout(Format2)
	for i := 0; i < 5; i++ {
		s.OnControlFields(frame.NewControlFields(), layout, 0)
	}
	if !s.GaveUp() {
		t.Fatal("registrant never gave up")
	}
	if s.State() != StateIdle {
		t.Fatal("failed registrant not idle")
	}
}

// activate walks a subscriber to the Active state with a known ID.
func activate(t *testing.T, s *Subscriber, id frame.UserID) {
	t.Helper()
	s.Enter(0)
	layout := NewLayout(Format2)
	plan := s.OnControlFields(frame.NewControlFields(), layout, 0)
	cf := frame.NewControlFields()
	cf.ReverseACKs[plan.ContentionSlot] = frame.ReverseACK{User: id, EIN: s.EIN}
	s.OnControlFields(cf, layout, 0)
	if s.State() != StateActive || s.ID() != id {
		t.Fatalf("activation failed: %v %v", s.State(), s.ID())
	}
}

func TestSubscriberQueueAndFragmentation(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	if !s.AddMessage(100, 0) { // 3 fragments
		t.Fatal("message rejected")
	}
	if s.QueueLen() != 3 {
		t.Fatalf("queue = %d, want 3", s.QueueLen())
	}
}

func TestSubscriberQueueOverflow(t *testing.T) {
	s := newTestSub(t, false, func(c *Config) { c.QueueCapFragments = 4 })
	activate(t, s, 4)
	if !s.AddMessage(100, 0) { // 3 frags: fits
		t.Fatal("first message rejected")
	}
	if s.AddMessage(100, 0) { // 3 more would exceed 4
		t.Fatal("overflow message accepted")
	}
	if s.QueueLen() != 3 {
		t.Fatal("partial message enqueued on overflow")
	}
}

func TestSubscriberTransmitsInGrantedSlots(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	s.AddMessage(80, 0) // 2 fragments
	layout := NewLayout(Format2)
	plan := s.OnControlFields(cfWith(map[int]frame.UserID{2: 4, 3: 4}), layout, 0)
	if len(plan.DataSlots) != 2 || plan.DataSlots[0] != 2 || plan.DataSlots[1] != 3 {
		t.Fatalf("data slots = %v", plan.DataSlots)
	}
	p1 := s.MakeDataPacket(2)
	p2 := s.MakeDataPacket(3)
	if p1 == nil || p2 == nil {
		t.Fatal("packets not produced")
	}
	if s.MakeDataPacket(4) != nil {
		t.Fatal("empty queue produced a packet")
	}
	if p1.Header.MsgID != p2.Header.MsgID || p1.Header.Frag == p2.Header.Frag {
		t.Fatal("fragment headers wrong")
	}
}

func TestSubscriberACKedFragmentsNotRetransmitted(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	s.AddMessage(41, 0) // 1 fragment
	layout := NewLayout(Format2)
	s.OnControlFields(cfWith(map[int]frame.UserID{2: 4}), layout, 0)
	if s.MakeDataPacket(2) == nil {
		t.Fatal("no packet")
	}
	// ACK arrives next cycle.
	cf := frame.NewControlFields()
	cf.ReverseACKs[2] = frame.ReverseACK{User: 4}
	s.OnControlFields(cf, layout, 0)
	if s.QueueLen() != 0 {
		t.Fatal("acked fragment requeued")
	}
}

func TestSubscriberNACKedFragmentRequeued(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	s.AddMessage(41, 0)
	layout := NewLayout(Format2)
	s.OnControlFields(cfWith(map[int]frame.UserID{2: 4}), layout, 0)
	if s.MakeDataPacket(2) == nil {
		t.Fatal("no packet")
	}
	if s.QueueLen() != 0 {
		t.Fatal("fragment still queued while in flight")
	}
	// Next CF carries no ACK → the fragment is requeued; under the
	// default data-in-contention policy it is immediately re-sent in a
	// contention slot.
	plan := s.OnControlFields(frame.NewControlFields(), layout, 0)
	if plan.ContentionSlot < 0 || plan.ContentionKind != frame.TypeData {
		t.Fatalf("lost fragment not rescheduled: plan %+v queue %d", plan, s.QueueLen())
	}
}

func TestSubscriberCFLossRequeuesInFlight(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	s.AddMessage(41, 0)
	layout := NewLayout(Format2)
	s.OnControlFields(cfWith(map[int]frame.UserID{2: 4}), layout, 0)
	s.MakeDataPacket(2)
	plan := s.OnCycleNoSchedule()
	if plan.ContentionSlot != -1 || plan.GPSSlot != -1 || len(plan.DataSlots) != 0 {
		t.Fatal("no-schedule plan should be empty")
	}
	if s.QueueLen() != 1 {
		t.Fatal("in-flight fragment lost with the control fields")
	}
}

func TestSubscriberContentionAndBackoff(t *testing.T) {
	s := newTestSub(t, false, func(c *Config) { c.Policy = ReserveExplicit })
	activate(t, s, 4)
	s.AddMessage(120, 0)
	layout := NewLayout(Format2)

	// No grants → explicit reservation in a contention slot.
	plan := s.OnControlFields(frame.NewControlFields(), layout, 0)
	if plan.ContentionSlot < 0 || plan.ContentionKind != frame.TypeReservation {
		t.Fatalf("plan = %+v", plan)
	}
	payload, err := s.MakeContentionPacket(nil)
	if err != nil || payload == nil {
		t.Fatalf("contention packet: %v", err)
	}
	pkt, err := frame.UnmarshalPacket(payload)
	if err != nil || pkt.Type != frame.TypeReservation || pkt.Reservation.Slots != 3 {
		t.Fatalf("reservation packet = %+v (err %v)", pkt, err)
	}

	// No ACK → collision assumed → backoff: no contention next cycle.
	plan = s.OnControlFields(frame.NewControlFields(), layout, 0)
	if plan.ContentionSlot >= 0 {
		t.Fatal("contended during backoff")
	}
}

func TestSubscriberDataInContentionPolicy(t *testing.T) {
	s := newTestSub(t, false, nil) // default: ReserveWithData
	activate(t, s, 4)
	s.AddMessage(120, 0) // 3 fragments
	layout := NewLayout(Format2)
	plan := s.OnControlFields(frame.NewControlFields(), layout, 0)
	if plan.ContentionKind != frame.TypeData {
		t.Fatalf("kind = %v, want data", plan.ContentionKind)
	}
	payload, err := s.MakeContentionPacket(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := frame.UnmarshalPacket(payload)
	if err != nil || pkt.Type != frame.TypeData {
		t.Fatal("not a data packet")
	}
	// Piggybacks the remaining 2 fragments.
	if pkt.Data.Header.MoreSlots != 2 {
		t.Fatalf("MoreSlots = %d, want 2", pkt.Data.Header.MoreSlots)
	}
}

func TestSubscriberNoContentionWhenGranted(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	s.AddMessage(500, 0)
	layout := NewLayout(Format2)
	plan := s.OnControlFields(cfWith(map[int]frame.UserID{3: 4}), layout, 0)
	if plan.ContentionSlot >= 0 {
		t.Fatal("contended despite having granted slots (piggyback suffices)")
	}
}

func TestSubscriberListensCF2AfterLastSlot(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	s.AddMessage(500, 0)
	layout := NewLayout(Format2)
	last := layout.LastDataSlot()
	s.OnControlFields(cfWith(map[int]frame.UserID{last: 4}), layout, 0)
	if !s.ListensCF2() {
		t.Fatal("last-slot user must listen to CF2")
	}
	// After processing the next CF, the flag resets.
	s.OnControlFields(frame.NewControlFields(), layout, 0)
	if s.ListensCF2() {
		t.Fatal("CF2 flag should reset")
	}
}

func TestSubscriberCF2ListenerAvoidsEarlyContention(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	s.AddMessage(2000, 0)
	layout := NewLayout(Format2)
	last := layout.LastDataSlot()
	// Cycle k: assigned the last slot → listens CF2 in k+1.
	s.OnControlFields(cfWith(map[int]frame.UserID{last: 4}), layout, 0)
	s.MakeDataPacket(last)
	// Cycle k+1 via CF2: ack received; no grants; contends — but only in
	// slots starting after CF2 + switch.
	cf := frame.NewControlFields()
	cf.ReverseACKs[last] = frame.ReverseACK{User: 4}
	plan := s.OnControlFields(cf, layout, 0)
	if plan.ContentionSlot == 0 {
		t.Fatal("CF2 listener contended in a slot it cannot reach in time")
	}
}

func TestSubscriberGPSReportFlow(t *testing.T) {
	s := newTestSub(t, true, nil)
	activate(t, s, 2)
	if _, _, ok := s.MakeGPSReport(); ok {
		t.Fatal("report produced without arrival")
	}
	if !s.AddGPSReport(10 * time.Second) {
		t.Fatal("first report rejected")
	}
	if s.AddGPSReport(14 * time.Second) {
		t.Fatal("replacement not flagged")
	}
	rep, arrival, ok := s.MakeGPSReport()
	if !ok || rep == nil {
		t.Fatal("no report")
	}
	if arrival != 14*time.Second {
		t.Fatalf("arrival = %v (replacement should win)", arrival)
	}
	if rep.User != 2 {
		t.Fatal("report user wrong")
	}
}

func TestSubscriberGPSPlansItsSlot(t *testing.T) {
	s := newTestSub(t, true, nil)
	activate(t, s, 2)
	layout := NewLayout(Format1)
	cf := frame.NewControlFields()
	cf.GPSSchedule[5] = 2
	plan := s.OnControlFields(cf, layout, 0)
	if plan.GPSSlot != 5 {
		t.Fatalf("GPS slot = %d, want 5", plan.GPSSlot)
	}
	if len(plan.DataSlots) != 0 || plan.ContentionSlot != -1 {
		t.Fatal("GPS user planned data activity")
	}
}

func TestSubscriberForwardReassembly(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	mk := func(frag uint8) *frame.DataPacket {
		return &frame.DataPacket{
			Header:  frame.DataHeader{User: 4, MsgID: 3, Frag: frag, FragTotal: 2},
			Payload: make([]byte, 20),
		}
	}
	if done, _, _ := s.ReceiveForward(mk(0)); done {
		t.Fatal("half a message reported complete")
	}
	if done, _, _ := s.ReceiveForward(mk(0)); done {
		t.Fatal("duplicate advanced reassembly")
	}
	done, id, bytes := s.ReceiveForward(mk(1))
	if !done || id != 3 || bytes != 40 {
		t.Fatalf("completion = (%v,%d,%d)", done, id, bytes)
	}
}

func TestSubscriberDeactivateResets(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	s.AddMessage(100, 0)
	s.Deactivate()
	if s.State() != StateIdle || s.ID() != frame.NoUser || s.QueueLen() != 0 {
		t.Fatal("deactivate did not reset")
	}
}

func TestSubscriberPagingObserved(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	cf := frame.NewControlFields()
	cf.Paging[0] = 4
	cf.Paging[1] = 9 // someone else
	s.ObservePaging(cf)
	if s.PagesSeen != 1 {
		t.Fatalf("PagesSeen = %d", s.PagesSeen)
	}
}

func TestSubscriberNeedTracking(t *testing.T) {
	s := newTestSub(t, false, nil)
	activate(t, s, 4)
	if _, has := s.NeedSince(); has {
		t.Fatal("need flagged without demand")
	}
	s.AddMessage(41, 7*time.Second)
	since, has := s.NeedSince()
	if !has || since != 7*time.Second {
		t.Fatalf("need = (%v,%v)", since, has)
	}
	s.ClearNeed()
	if _, has := s.NeedSince(); has {
		t.Fatal("need not cleared")
	}
}

func TestSubscriberStateString(t *testing.T) {
	if StateIdle.String() != "idle" || StateRegistering.String() != "registering" ||
		StateActive.String() != "active" || SubscriberState(0).String() != "state?" {
		t.Fatal("state strings wrong")
	}
}

func TestReservationPolicyString(t *testing.T) {
	if ReserveExplicit.String() != "explicit" || ReserveWithData.String() != "data-in-contention" {
		t.Fatal("policy strings wrong")
	}
	if ReservationPolicy(9).String() == "" {
		t.Fatal("unknown policy should render")
	}
}
