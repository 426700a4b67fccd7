package core

import (
	"testing"

	"github.com/osu-netlab/osumac/internal/frame"
)

// TestRecordReverseAllocsZero guards the hotpathalloc root
// BaseStation.RecordReverse: received packets parse into the base
// station's scratch, the demand book is a per-ID table, and reassembly
// state is a map value whose storage a completed message leaves for the
// next one.
func TestRecordReverseAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)
	g := register(t, b, 101, true)
	slots := [][][]byte{
		{dataPayload(t, u, 2, 1, 0, 1, 30)},                     // a one-fragment message
		{dataPayload(t, u, 0, 2, 0, 2, 41)},                     // two fragments: opens reassembly
		{dataPayload(t, u, 1, 2, 1, 2, 7)},                      // ... and completes it
		{resPayload(t, u, 3)},                                   // reservation
		{regPayload(t, 100, false)},                             // re-registration of a known EIN
		{nil},                                                   // RS decode failure
		{dataPayload(t, u, 0, 3, 0, 1, 1), resPayload(t, u, 1)}, // collision
	}
	gpsBody, err := (&frame.GPSReport{User: g, Sequence: 1}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		for i, p := range slots {
			b.RecordReverse(i, false, false, p, i >= 3)
		}
		if _, ok := b.RecordGPS(gpsBody); !ok {
			t.Fatal("GPS report from a slot holder rejected")
		}
	}
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("%v allocs per round of receptions, want 0", n)
	}
}

// TestOnControlFieldsAllocsZero guards the hotpathalloc root
// Subscriber.OnControlFields: planning, ACK resolution (requeueing lost
// fragments at the queue head) and contention picks use value records
// and scratch.
func TestOnControlFieldsAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := newTestSub(t, false, nil)
	s.Enter(0)
	layout := layoutOf(Format2)
	plan := s.OnControlFields(frame.NewControlFields(), layout, 0)
	ack := frame.NewControlFields()
	ack.ReverseACKs[plan.ContentionSlot] = frame.ReverseACK{User: 9, EIN: 500}
	s.OnControlFields(ack, layout, 0)
	if s.State() != StateActive {
		t.Fatal("subscriber did not activate")
	}
	for i := 0; i < 4; i++ {
		if !s.AddMessage(120, 0) {
			t.Fatal("message dropped")
		}
	}
	// Grants without ACKs: every sent fragment is lost and requeued, so
	// the queue keeps its length; the empty sets send the subscriber to
	// contention.
	grant := frame.NewControlFields()
	grant.ReverseSchedule[2], grant.ReverseSchedule[3] = 9, 9
	empty := frame.NewControlFields()
	var pkt frame.DataPacket
	var payload [frame.MaxPayload]byte
	step := func() {
		for _, cf := range []*frame.ControlFields{grant, empty, empty} {
			p := s.OnControlFields(cf, layout, 0)
			for _, slot := range p.DataSlots {
				s.MakeDataPacketInto(slot, &pkt, payload[:])
			}
		}
	}
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("%v allocs per three cycles, want 0", n)
	}
	if s.QueueLen() == 0 {
		t.Fatal("queue drained: the lost fragments were not requeued")
	}
}

// TestForwardQueueAllocsZero guards the base station's forward queue:
// fragments are values in a per-user ring that keeps its storage, and
// PopForward builds the packet in base-station scratch, so a steady
// enqueue/pop cycle allocates nothing once the ring has grown.
func TestForwardQueueAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b, _ := newTestBase(t, nil)
	b.BeginCycle()
	u := register(t, b, 100, false)
	msgID := uint16(0)
	step := func() {
		for _, size := range []int{30, 200, 500} {
			if err := b.EnqueueForward(u, msgID, size); err != nil {
				t.Fatal(err)
			}
			msgID++
		}
		for b.PopForward(u) != nil {
		}
	}
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("%v allocs per enqueue/drain round, want 0", n)
	}
}

// TestCycleSourcePeekAllocsZero guards the hotpathalloc root
// compiledSource.PeekAction, which the kernel calls on every step: it
// merges the compiled instances' cursors with the pending cycle starts
// without allocating, and a run of cycle starts recorded by
// ScheduleCycles reuses the run list's storage once it has drained.
func TestCycleSourcePeekAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := newTestNetwork(t, nil)
	for i := 0; i < 4; i++ {
		if _, err := n.AddSubscriber(frame.EIN(100+i), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(5); err != nil {
		t.Fatal(err)
	}
	peeks := 0
	step := func() {
		if err := n.ScheduleCycles(2, n.Sim().Now()); err != nil {
			t.Fatal(err)
		}
		for {
			key, ok := n.compiled.PeekAction()
			if !ok {
				return
			}
			peeks++
			if err := n.Sim().Run(key.At); err != nil {
				t.Fatal(err)
			}
		}
	}
	step()
	if a := testing.AllocsPerRun(50, step); a != 0 {
		t.Fatalf("%v allocs per two source-driven cycles, want 0", a)
	}
	if peeks == 0 || n.Metrics().CompiledCycles.Value() == 0 {
		t.Fatal("the cycle source never fired a compiled cycle")
	}
}
