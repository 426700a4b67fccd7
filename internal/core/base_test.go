package core

import (
	"slices"
	"testing"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/sim"
)

func newTestBase(t *testing.T, mutate func(*Config)) (*BaseStation, *Metrics) {
	t.Helper()
	cfg := NewConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	return NewBaseStation(&cfg, m, sim.NewRNG(1)), m
}

func regPayload(t *testing.T, ein frame.EIN, gps bool) []byte {
	t.Helper()
	b, err := (&frame.RegistrationRequest{EIN: ein, WantGPS: gps}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func resPayload(t *testing.T, user frame.UserID, slots uint8) []byte {
	t.Helper()
	b, err := (&frame.ReservationRequest{User: user, Slots: slots}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func dataPayload(t *testing.T, user frame.UserID, more uint8, msgID uint16, frag, total uint8, n int) []byte {
	t.Helper()
	b, err := (&frame.DataPacket{
		Header:  frame.DataHeader{User: user, MoreSlots: more, MsgID: msgID, Frag: frag, FragTotal: total},
		Payload: make([]byte, n),
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func register(t *testing.T, b *BaseStation, ein frame.EIN, gps bool) frame.UserID {
	t.Helper()
	out := b.RecordReverse(0, false, false, [][]byte{regPayload(t, ein, gps)}, true)
	if !out.NewRegistration {
		t.Fatalf("registration of %d failed", ein)
	}
	return out.AssignedID
}

func TestBaseRegistrationAssignsSequentialIDs(t *testing.T) {
	b, m := newTestBase(t, nil)
	b.BeginCycle()
	u1 := register(t, b, 100, false)
	u2 := register(t, b, 101, true)
	if u1 == u2 {
		t.Fatal("duplicate ID assignment")
	}
	if m.RegistrationsApproved.Value() != 2 {
		t.Fatalf("approved = %d", m.RegistrationsApproved.Value())
	}
	if b.ActiveUsers() != 2 {
		t.Fatalf("active = %d", b.ActiveUsers())
	}
	// GPS registrant got a GPS slot.
	if b.GPSTable().SlotOf(u2) != 0 {
		t.Fatal("GPS registrant has no slot")
	}
	if b.GPSTable().SlotOf(u1) != -1 {
		t.Fatal("data registrant has a GPS slot")
	}
}

func TestBaseReregistrationIsIdempotent(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	u1 := register(t, b, 100, false)
	u2 := register(t, b, 100, false)
	if u1 != u2 {
		t.Fatalf("re-registration changed ID: %v → %v", u1, u2)
	}
	if b.ActiveUsers() != 1 {
		t.Fatal("re-registration duplicated the subscriber")
	}
}

func TestBaseGPSCapacity(t *testing.T) {
	b, m := newTestBase(t, nil)
	b.BeginCycle()
	for i := 0; i < 8; i++ {
		register(t, b, frame.EIN(200+i), true)
	}
	out := b.RecordReverse(0, false, false, [][]byte{regPayload(t, 300, true)}, true)
	if out.NewRegistration {
		t.Fatal("9th GPS user admitted")
	}
	if m.RegistrationsFailed.Value() != 1 {
		t.Fatalf("failed = %d", m.RegistrationsFailed.Value())
	}
}

func TestBaseCollisionDetection(t *testing.T) {
	b, m := newTestBase(t, nil)
	b.BeginCycle()
	out := b.RecordReverse(0, false, false, [][]byte{
		regPayload(t, 100, false),
		regPayload(t, 101, false),
	}, true)
	if !out.Collision {
		t.Fatal("two transmissions did not collide")
	}
	if out.Received != nil {
		t.Fatal("collision produced a reception")
	}
	if m.ContentionCollisions.Value() != 1 {
		t.Fatal("collision not counted")
	}
	if b.ActiveUsers() != 0 {
		t.Fatal("collision admitted users")
	}
}

func TestBaseReservationBooksDemand(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)
	b.RecordReverse(0, false, false, [][]byte{resPayload(t, u, 5)}, true)
	b.BeginCycle()
	// The reverse schedule must grant the user slots.
	granted := 0
	for _, x := range b.ControlFields().ReverseSchedule {
		if x == u {
			granted++
		}
	}
	if granted != 5 {
		t.Fatalf("granted %d slots, want 5", granted)
	}
}

func TestBaseReservationFromUnknownUserIgnored(t *testing.T) {
	b, m := newTestBase(t, nil)
	b.BeginCycle()
	b.RecordReverse(0, false, false, [][]byte{resPayload(t, 7, 3)}, true)
	if m.ReservationPackets.Value() != 0 {
		t.Fatal("reservation from unknown user counted")
	}
	b.BeginCycle()
	for _, x := range b.ControlFields().ReverseSchedule {
		if x == 7 {
			t.Fatal("unknown user scheduled")
		}
	}
}

func TestBasePiggybackExtendsDemand(t *testing.T) {
	b, m := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)
	b.RecordReverse(1, false, false, [][]byte{dataPayload(t, u, 4, 1, 0, 10, 20)}, true)
	if m.PiggybackRequests.Value() != 1 {
		t.Fatal("piggyback not counted")
	}
	b.BeginCycle()
	granted := 0
	for _, x := range b.ControlFields().ReverseSchedule {
		if x == u {
			granted++
		}
	}
	if granted != 4 {
		t.Fatalf("granted %d, want 4", granted)
	}
}

func TestBaseACKWindows(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)

	// Next cycle's CF1 must ack contention slot 0.
	b.BeginCycle()
	cf1 := b.ControlFields()
	if cf1.ReverseACKs[0].EIN != 100 || cf1.ReverseACKs[0].User != u {
		t.Fatalf("CF1 ack[0] = %+v", cf1.ReverseACKs[0])
	}
}

func TestBaseCF2CarriesLastSlotACK(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)
	last := b.Layout().LastDataSlot()
	// User transmits data in the last slot of this cycle; the reception
	// lands after the next BeginCycle (intoPrev = true).
	b.BeginCycle()
	b.RecordReverse(last, true, true, [][]byte{dataPayload(t, u, 0, 1, 0, 1, 10)}, true)
	cf1 := b.ControlFields()
	if cf1.ReverseACKs[last].User == u {
		t.Fatal("CF1 must NOT ack the last slot (CF2's job)")
	}
	cf2 := b.BuildCF2()
	if cf2.ReverseACKs[last].User != u {
		t.Fatalf("CF2 ack[last] = %+v, want user %v", cf2.ReverseACKs[last], u)
	}
	// Everything else is identical between the two sets.
	if cf2.ReverseSchedule != cf1.ReverseSchedule || cf2.ForwardSchedule != cf1.ForwardSchedule {
		t.Fatal("CF2 changed the schedules")
	}
}

func TestBaseRSDecodeFailureIsLoss(t *testing.T) {
	b, m := newTestBase(t, nil)
	b.BeginCycle()
	out := b.RecordReverse(2, false, false, [][]byte{nil}, false)
	if out.Received != nil || out.Collision {
		t.Fatal("nil payload should be a plain loss")
	}
	if m.FragmentsLost.Value() != 1 {
		t.Fatal("loss not counted")
	}
}

func TestBaseGarbagePayloadIgnored(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	garbage := make([]byte, 48) // type nibble 0: malformed
	out := b.RecordReverse(0, false, false, [][]byte{garbage}, true)
	if out.Received != nil {
		t.Fatal("garbage parsed as a packet")
	}
}

func TestBaseDeregister(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, true)
	if err := b.Deregister(u); err != nil {
		t.Fatal(err)
	}
	if b.ActiveUsers() != 0 {
		t.Fatal("user still active")
	}
	if b.GPSTable().Active() != 0 {
		t.Fatal("GPS slot not released")
	}
	if err := b.Deregister(u); err == nil {
		t.Fatal("double deregister allowed")
	}
}

func TestBaseStaleDataFromDeregisteredUser(t *testing.T) {
	b, m := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)
	if err := b.Deregister(u); err != nil {
		t.Fatal(err)
	}
	b.RecordReverse(1, false, false, [][]byte{dataPayload(t, u, 0, 1, 0, 1, 5)}, false)
	if m.ReverseDataPkts.Value() != 0 {
		t.Fatal("stale packet counted as data")
	}
}

func TestBaseContentionSlotsAlwaysFirst(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)
	b.RecordReverse(0, false, false, [][]byte{resPayload(t, u, 9)}, true)
	b.BeginCycle()
	cf := b.ControlFields()
	// Slot 0 must remain a contention slot even under full demand.
	if cf.ReverseSchedule[0] != frame.NoUser {
		t.Fatalf("slot 0 assigned: %v", cf.ReverseSchedule[0])
	}
}

func TestBaseSecondCFDisabledSkipsLastSlot(t *testing.T) {
	b, _ := newTestBase(t, func(c *Config) { c.SecondControlField = false })
	b.BeginCycle()
	u := register(t, b, 100, false)
	b.RecordReverse(0, false, false, [][]byte{resPayload(t, u, 15)}, true)
	b.BeginCycle()
	cf := b.ControlFields()
	last := b.Layout().LastDataSlot()
	if cf.ReverseSchedule[last] != frame.NoUser {
		t.Fatal("last slot assigned with CF2 disabled")
	}
}

func TestBaseFragmentationSizes(t *testing.T) {
	cases := []struct {
		size int
		want []int
	}{
		{0, []int{0}},
		{-1, []int{0}},
		{41, []int{41}},
		{42, []int{41, 1}},
		{120, []int{41, 41, 38}},
	}
	for _, c := range cases {
		got := make([]int, fragmentCount(c.size))
		for i := range got {
			got[i] = fragmentSize(c.size, i)
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("fragments of %d bytes = %v, want %v", c.size, got, c.want)
		}
	}
}

func TestBaseForwardQueueing(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)
	if err := b.EnqueueForward(u, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.EnqueueForward(frame.UserID(50), 1, 100); err == nil {
		t.Fatal("enqueue for unknown user allowed")
	}
	b.BeginCycle()
	// Forward schedule must carry the user.
	assigned := 0
	for _, x := range b.ControlFields().ForwardSchedule {
		if x == u {
			assigned++
		}
	}
	if assigned != 3 { // 100 bytes = 3 fragments
		t.Fatalf("forward slots = %d, want 3", assigned)
	}
	wantSizes := []int{frame.MaxPayload, frame.MaxPayload, 100 - 2*frame.MaxPayload}
	for i, size := range wantSizes {
		pkt := b.PopForward(u)
		if pkt == nil {
			t.Fatalf("forward packet %d missing", i)
		}
		want := frame.DataHeader{User: u, MsgID: 1, Frag: uint8(i), FragTotal: 3}
		if pkt.Header != want || len(pkt.Payload) != size {
			t.Fatalf("forward packet %d = %+v with %d payload bytes, want %+v with %d",
				i, pkt.Header, len(pkt.Payload), want, size)
		}
		for _, c := range pkt.Payload {
			if c != 0 {
				t.Fatalf("forward packet %d payload not zeroed", i)
			}
		}
	}
	if b.PopForward(u) != nil {
		t.Fatal("queue should be empty")
	}
	if b.PopForward(frame.NoUser) != nil || b.PopForward(frame.UserID(200)) != nil {
		t.Fatal("pop for an unqueued or out-of-range user returned a packet")
	}

	// Deregistering drops whatever is still queued for the user.
	if err := b.EnqueueForward(u, 2, 500); err != nil {
		t.Fatal(err)
	}
	if err := b.Deregister(u); err != nil {
		t.Fatal(err)
	}
	if b.PopForward(u) != nil {
		t.Fatal("deregistered user's forward queue not cleared")
	}
}

func TestBaseGPSReception(t *testing.T) {
	b, m := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, true)
	body, err := (&frame.GPSReport{User: u, Sequence: 1}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.RecordGPS(body); !ok {
		t.Fatal("valid GPS report rejected")
	}
	if m.GPSDelivered.Value() != 1 {
		t.Fatal("delivery not counted")
	}
	// Corrupted body is a loss.
	body[0] ^= 0xFF
	if _, ok := b.RecordGPS(body); ok {
		t.Fatal("corrupted report accepted")
	}
	if m.GPSLost.Value() != 1 {
		t.Fatal("loss not counted")
	}
	// Report from a non-holder is dropped.
	body2, err := (&frame.GPSReport{User: 62, Sequence: 1}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.RecordGPS(body2); ok {
		t.Fatal("report from non-holder accepted")
	}
	if rep, ok := b.RecordGPS(nil); rep != nil || ok {
		t.Fatal("nil body should return (nil, false)")
	}
}

func TestBaseDuplicateFragmentNotDoubleCounted(t *testing.T) {
	b, m := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)
	pkt := dataPayload(t, u, 0, 7, 0, 2, 30)
	b.RecordReverse(1, false, false, [][]byte{pkt}, false)
	b.RecordReverse(2, false, false, [][]byte{pkt}, false) // retransmission
	if m.BytesDelivered.Value() != 30 {
		t.Fatalf("bytes = %d, duplicate double-counted", m.BytesDelivered.Value())
	}
	// Completing fragment arrives once.
	out := b.RecordReverse(3, false, false, [][]byte{dataPayload(t, u, 0, 7, 1, 2, 10)}, false)
	if !out.MessageComplete || out.Bytes != 40 {
		t.Fatalf("completion = %+v", out)
	}
}

func TestBasePagingQueue(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.Page(5)
	b.Page(9)
	b.BeginCycle()
	cf := b.ControlFields()
	if cf.Paging[0] != 5 || cf.Paging[1] != 9 {
		t.Fatalf("paging = %v %v", cf.Paging[0], cf.Paging[1])
	}
	b.BeginCycle()
	if b.ControlFields().Paging[0] != frame.NoUser {
		t.Fatal("pages should drain after one cycle")
	}
}

func TestBaseMaxDataUsers(t *testing.T) {
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	admitted := 0
	for i := 0; i < 70; i++ {
		out := b.RecordReverse(0, false, false, [][]byte{regPayload(t, frame.EIN(1000+i), false)}, true)
		if out.NewRegistration {
			admitted++
		}
	}
	if admitted >= 64 {
		t.Fatalf("admitted %d users; 6-bit ID space with NoUser sentinel caps below 64", admitted)
	}
	if admitted < 60 {
		t.Fatalf("admitted only %d users", admitted)
	}
}
