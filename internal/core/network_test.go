package core

import (
	"errors"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/traffic"
)

func newTestNetwork(t *testing.T, mutate func(*Config)) *Network {
	t.Helper()
	cfg := NewConfig()
	cfg.Seed = 7
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSingleSubscriberRegisters(t *testing.T) {
	n := newTestNetwork(t, nil)
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(5); err != nil {
		t.Fatal(err)
	}
	if sub.State() != StateActive {
		t.Fatalf("subscriber state = %v after 5 cycles", sub.State())
	}
	if !sub.ID().Valid() {
		t.Fatal("no user ID assigned")
	}
	if got, ok := n.Base().Registered(100); !ok || got != sub.ID() {
		t.Fatal("base registry does not match subscriber")
	}
	if n.Metrics().RegistrationsApproved.Value() != 1 {
		t.Fatalf("approvals = %d", n.Metrics().RegistrationsApproved.Value())
	}
	// Alone in the cell, registration should land in the first cycle or
	// two.
	if lat := n.Metrics().RegistrationLatency.Max(); lat > 2 {
		t.Fatalf("registration latency = %v cycles", lat)
	}
}

func TestMessageDeliveredEndToEnd(t *testing.T) {
	n := newTestNetwork(t, nil)
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Register first.
	if err := n.Run(3); err != nil {
		t.Fatal(err)
	}
	if sub.State() != StateActive {
		t.Fatalf("not active: %v", sub.State())
	}
	// Inject one 100-byte message (3 fragments) and run.
	if !sub.AddMessage(100, n.Sim().Now()) {
		t.Fatal("message rejected")
	}
	n.TrackMessage(sub.ID(), 0, 100, n.Sim().Now())
	if err := n.Run(8); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.MessagesDelivered.Value() != 1 {
		t.Fatalf("delivered = %d, want 1 (fragments sent %d, lost %d)",
			m.MessagesDelivered.Value(), m.FragmentsSent.Value(), m.FragmentsLost.Value())
	}
	if m.BytesDelivered.Value() != 100 {
		t.Fatalf("bytes delivered = %d, want 100", m.BytesDelivered.Value())
	}
	if sub.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", sub.QueueLen())
	}
}

func TestPoissonTrafficConservation(t *testing.T) {
	n := newTestNetwork(t, func(c *Config) {
		c.MeanInterarrival = 15 * time.Second
		c.SizeDist = traffic.Fixed{Bytes: 120}
	})
	var subs []*Subscriber
	for i := 0; i < 5; i++ {
		s, err := n.AddSubscriber(frame.EIN(100+i), false, time.Duration(i)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if err := n.Run(150); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.MessagesGenerated.Value() == 0 {
		t.Fatal("no traffic generated")
	}
	// Conservation: everything generated is delivered or still queued
	// (ideal channel, moderate load → no losses).
	queued := 0
	for _, s := range subs {
		queued += s.QueueLen()
	}
	inFlight := len(n.msgMeta)
	delivered := int(m.MessagesDelivered.Value())
	if delivered+inFlight != int(m.MessagesGenerated.Value()) {
		t.Fatalf("conservation: generated %d != delivered %d + in-flight %d (queued frags %d)",
			m.MessagesGenerated.Value(), delivered, inFlight, queued)
	}
	// Under light load, the vast majority should be delivered.
	if float64(delivered) < 0.8*float64(m.MessagesGenerated.Value()) {
		t.Fatalf("only %d/%d delivered under light load", delivered, m.MessagesGenerated.Value())
	}
}

func TestEightGPSUsersMeetDeadline(t *testing.T) {
	n := newTestNetwork(t, nil)
	for i := 0; i < 8; i++ {
		if _, err := n.AddSubscriber(frame.EIN(200+i), true, time.Duration(i)*500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(60); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.GPSDelivered.Value() == 0 {
		t.Fatal("no GPS reports delivered")
	}
	if m.GPSDeadlineViolations.Value() != 0 {
		t.Fatalf("%d GPS deadline violations on an ideal channel", m.GPSDeadlineViolations.Value())
	}
	if max := m.GPSAccessDelay.Max(); max > phy.GPSAccessDeadline.Seconds() {
		t.Fatalf("max GPS access delay %.3fs exceeds 4s", max)
	}
	// 8 GPS users force format 1.
	if n.Base().Layout().Format != Format1 {
		t.Fatalf("format = %v, want Format1", n.Base().Layout().Format)
	}
	if n.Base().GPSTable().Active() != 8 {
		t.Fatalf("active GPS users = %d", n.Base().GPSTable().Active())
	}
}

func TestFewGPSUsersUseFormat2(t *testing.T) {
	n := newTestNetwork(t, nil)
	if _, err := n.AddSubscriber(200, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	if n.Base().Layout().Format != Format2 {
		t.Fatalf("format = %v, want Format2 with 1 GPS user", n.Base().Layout().Format)
	}
	if got := len(n.Base().Layout().ReverseData); got != 9 {
		t.Fatalf("data slots = %d, want 9", got)
	}
}

func TestStaticAdjustmentForcesFormat1(t *testing.T) {
	n := newTestNetwork(t, func(c *Config) { c.DynamicSlotAdjustment = false })
	if _, err := n.AddSubscriber(200, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	if n.Base().Layout().Format != Format1 {
		t.Fatalf("static adjustment should pin format 1, got %v", n.Base().Layout().Format)
	}
}

func TestManySimultaneousRegistrants(t *testing.T) {
	n := newTestNetwork(t, nil)
	var subs []*Subscriber
	for i := 0; i < 10; i++ {
		s, err := n.AddSubscriber(frame.EIN(300+i), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if err := n.Run(40); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		if s.State() != StateActive {
			t.Fatalf("subscriber %d still %v after 40 cycles", i, s.State())
		}
	}
	m := n.Metrics()
	if m.ContentionCollisions.Value() == 0 {
		t.Fatal("10 simultaneous registrants should collide at least once")
	}
	if m.RegistrationsApproved.Value() != 10 {
		t.Fatalf("approved = %d, want 10", m.RegistrationsApproved.Value())
	}
}

func TestContentionControllerWidens(t *testing.T) {
	n := newTestNetwork(t, nil)
	for i := 0; i < 12; i++ {
		if _, err := n.AddSubscriber(frame.EIN(300+i), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	base := n.Base()
	if base.ContentionSlotCount() != 1 {
		t.Fatalf("initial contention slots = %d", base.ContentionSlotCount())
	}
	widened := false
	for k := 0; k < 10; k++ {
		if err := n.Run(1); err != nil {
			t.Fatal(err)
		}
		if base.ContentionSlotCount() > 1 {
			widened = true
			break
		}
	}
	if !widened {
		t.Fatal("collision storm did not widen contention slots")
	}
}

func TestReliableDeliveryOverLossyChannel(t *testing.T) {
	n := newTestNetwork(t, func(c *Config) {
		c.NewReverseModel = func() phy.ErrorModel {
			return phy.TwoRegime{PLoss: 0.2, MaxCorrectable: 8}
		}
	})
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(8); err != nil {
		t.Fatal(err)
	}
	if sub.State() != StateActive {
		t.Fatalf("not active over lossy channel: %v", sub.State())
	}
	if !sub.AddMessage(1500, n.Sim().Now()) { // 37 fragments
		t.Fatal("message rejected")
	}
	n.TrackMessage(sub.ID(), 0, 1500, n.Sim().Now())
	if err := n.Run(60); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.MessagesDelivered.Value() != 1 {
		t.Fatalf("message not delivered over lossy channel (frag lost %d, sent %d)",
			m.FragmentsLost.Value(), m.FragmentsSent.Value())
	}
	if m.BytesDelivered.Value() != 1500 {
		t.Fatalf("bytes delivered = %d, want exactly 1500 (no duplicates, no corruption)", m.BytesDelivered.Value())
	}
	if m.FragmentsLost.Value() == 0 {
		t.Fatal("lossy channel lost nothing; model not exercised")
	}
}

func TestCFDecodeFailureRecovery(t *testing.T) {
	n := newTestNetwork(t, func(c *Config) {
		c.NewForwardModel = func() phy.ErrorModel {
			return phy.TwoRegime{PLoss: 0.3, MaxCorrectable: 4}
		}
	})
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(40); err != nil {
		t.Fatal(err)
	}
	if sub.State() != StateActive {
		t.Fatalf("never registered despite 40 cycles: %v", sub.State())
	}
	if n.Metrics().CFDecodeFailures.Value() == 0 {
		t.Fatal("no CF decode failures injected")
	}
}

func TestSecondControlFieldDisabledNeverUsesLastSlot(t *testing.T) {
	n := newTestNetwork(t, func(c *Config) {
		c.SecondControlField = false
		c.MeanInterarrival = 5 * time.Second
		c.SizeDist = traffic.Fixed{Bytes: 400}
	})
	for i := 0; i < 6; i++ {
		if _, err := n.AddSubscriber(frame.EIN(100+i), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.LastSlotDataPkts.Value() != 0 {
		t.Fatalf("last slot carried %d packets with CF2 disabled", m.LastSlotDataPkts.Value())
	}
	if m.CF2Listens.Value() != 0 {
		t.Fatalf("CF2 listened to %d times while disabled", m.CF2Listens.Value())
	}
	if m.ReverseDataPkts.Value() == 0 {
		t.Fatal("no data flowed at all")
	}
}

func TestSecondControlFieldEnabledUsesLastSlot(t *testing.T) {
	n := newTestNetwork(t, func(c *Config) {
		c.MeanInterarrival = 5 * time.Second
		c.SizeDist = traffic.Fixed{Bytes: 400}
	})
	for i := 0; i < 6; i++ {
		if _, err := n.AddSubscriber(frame.EIN(100+i), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.LastSlotDataPkts.Value() == 0 {
		t.Fatal("busy cell never used the last data slot despite CF2")
	}
	if m.CF2Listens.Value() == 0 {
		t.Fatal("nobody ever listened to CF2")
	}
}

func TestForwardDelivery(t *testing.T) {
	n := newTestNetwork(t, nil)
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(3); err != nil {
		t.Fatal(err)
	}
	if sub.State() != StateActive {
		t.Fatal("not active")
	}
	if err := n.SendToSubscriber(sub, 300); err != nil { // 8 fragments
		t.Fatal(err)
	}
	if err := n.Run(3); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.ForwardPktsSent.Value() != 8 {
		t.Fatalf("forward packets sent = %d, want 8", m.ForwardPktsSent.Value())
	}
	if m.ForwardPktsDelivered.Value() != 8 {
		t.Fatalf("forward packets delivered = %d, want 8", m.ForwardPktsDelivered.Value())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		n := newTestNetwork(t, func(c *Config) {
			c.MeanInterarrival = 8 * time.Second
			c.NewReverseModel = func() phy.ErrorModel {
				return phy.TwoRegime{PLoss: 0.1, MaxCorrectable: 8}
			}
		})
		for i := 0; i < 6; i++ {
			if _, err := n.AddSubscriber(frame.EIN(100+i), i < 2, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Run(50); err != nil {
			t.Fatal(err)
		}
		m := n.Metrics()
		return m.MessagesDelivered.Value(), m.ContentionCollisions.Value(), m.MessageDelay.Mean()
	}
	d1, c1, l1 := run()
	d2, c2, l2 := run()
	if d1 != d2 || c1 != c2 || l1 != l2 {
		t.Fatalf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", d1, c1, l1, d2, c2, l2)
	}
}

func TestGPSUserChurnSwitchesFormat(t *testing.T) {
	n := newTestNetwork(t, nil)
	var gps []*Subscriber
	for i := 0; i < 5; i++ {
		s, err := n.AddSubscriber(frame.EIN(200+i), true, 0)
		if err != nil {
			t.Fatal(err)
		}
		gps = append(gps, s)
	}
	if err := n.Run(25); err != nil {
		t.Fatal(err)
	}
	if n.Base().Layout().Format != Format1 {
		t.Fatalf("5 GPS users should use format 1, got %v", n.Base().Layout().Format)
	}
	// Two users sign off → 3 remain → next cycles use format 2.
	for _, s := range gps[:2] {
		if s.State() != StateActive {
			t.Fatal("GPS user failed to register")
		}
		if err := n.Deregister(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(3); err != nil {
		t.Fatal(err)
	}
	if n.Base().Layout().Format != Format2 {
		t.Fatalf("after churn, format = %v, want Format2", n.Base().Layout().Format)
	}
	if n.Metrics().GPSDeadlineViolations.Value() != 0 {
		t.Fatal("format switch violated the GPS deadline")
	}
}

func TestDeregisterUnknown(t *testing.T) {
	n := newTestNetwork(t, nil)
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Never ran: subscriber is Idle; deregister is a no-op reset.
	if err := n.Deregister(sub); err != nil {
		t.Fatal(err)
	}
}

func TestPaging(t *testing.T) {
	n := newTestNetwork(t, nil)
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(3); err != nil {
		t.Fatal(err)
	}
	n.Base().Page(sub.ID())
	if err := n.Run(2); err != nil {
		t.Fatal(err)
	}
	if sub.PagesSeen == 0 {
		t.Fatal("page never observed")
	}
}

func TestRunRejectsNonPositiveCycles(t *testing.T) {
	n := newTestNetwork(t, nil)
	if err := n.Run(0); err == nil {
		t.Fatal("Run(0) accepted")
	}
}

func TestDuplicateEINRejected(t *testing.T) {
	n := newTestNetwork(t, nil)
	if _, err := n.AddSubscriber(100, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddSubscriber(100, true, 0); err == nil {
		t.Fatal("duplicate EIN accepted")
	}
}

func TestPagingResponse(t *testing.T) {
	n := newTestNetwork(t, nil)
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(3); err != nil {
		t.Fatal(err)
	}
	if sub.State() != StateActive {
		t.Fatal("not active")
	}
	// Page the now-idle subscriber: it must answer through a contention
	// slot within a couple of cycles.
	n.Base().Page(sub.ID())
	if err := n.Run(4); err != nil {
		t.Fatal(err)
	}
	if sub.PagesSeen == 0 {
		t.Fatal("page not observed")
	}
	if n.Metrics().PageResponses.Value() == 0 {
		t.Fatal("page never answered")
	}
}

func TestPagingAnsweredByDataWhenBusy(t *testing.T) {
	n := newTestNetwork(t, nil)
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(3); err != nil {
		t.Fatal(err)
	}
	// Give the subscriber data so its page is answered implicitly by
	// uplink traffic rather than a zero-slot reservation.
	sub.AddMessage(500, n.Sim().Now())
	n.Base().Page(sub.ID())
	if err := n.Run(5); err != nil {
		t.Fatal(err)
	}
	if sub.PagesSeen == 0 {
		t.Fatal("page not observed")
	}
	if n.Metrics().ReverseDataPkts.Value() == 0 {
		t.Fatal("no uplink data flowed")
	}
}

func TestCycleSeries(t *testing.T) {
	n := newTestNetwork(t, func(c *Config) {
		c.CollectSeries = true
		c.MeanInterarrival = 10 * time.Second
	})
	for i := 0; i < 5; i++ {
		if _, err := n.AddSubscriber(frame.EIN(100+i), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(50); err != nil {
		t.Fatal(err)
	}
	series := n.Metrics().Series
	if len(series) < 45 {
		t.Fatalf("series has %d points", len(series))
	}
	var used, offered int
	for i, p := range series {
		if p.Cycle != i {
			t.Fatalf("series cycle %d at index %d", p.Cycle, i)
		}
		if p.SlotsOffered < 8 || p.SlotsOffered > 9 {
			t.Fatalf("cycle %d offered %d slots", p.Cycle, p.SlotsOffered)
		}
		if p.SlotsUsed < 0 || p.SlotsUsed > p.SlotsOffered+1 {
			t.Fatalf("cycle %d used %d of %d", p.Cycle, p.SlotsUsed, p.SlotsOffered)
		}
		used += p.SlotsUsed
		offered += p.SlotsOffered
	}
	if used == 0 {
		t.Fatal("series recorded no slot usage")
	}
	// Series totals reconcile with the aggregate counters (minus the
	// final cycle, which has no closing boundary).
	if uint64(offered) > n.Metrics().DataSlotsOffered.Value() {
		t.Fatal("series over-counts offered slots")
	}
}

func TestForwardDeliveryToIdleLastSlotOwner(t *testing.T) {
	// Regression: a subscriber ASSIGNED the last reverse data slot
	// listens to CF2 next cycle even if it had nothing to send there.
	// The base must know that from the assignment (not from a received
	// transmission) and keep forward slot 0 away from it — otherwise
	// ideal-channel forward packets vanish.
	n := newTestNetwork(t, func(c *Config) {
		c.MeanInterarrival = 6 * time.Second
	})
	var subs []*Subscriber
	for i := 0; i < 4; i++ {
		s, err := n.AddSubscriber(frame.EIN(100+i), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if err := n.Run(5); err != nil {
		t.Fatal(err)
	}
	// Sustained bidirectional traffic over many cycles: every forward
	// packet sent on the ideal channel must be delivered.
	for cycle := 0; cycle < 60; cycle++ {
		if cycle%3 == 0 {
			for _, s := range subs {
				if s.State() == StateActive {
					if err := n.SendToSubscriber(s, 100); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := n.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	m := n.Metrics()
	if m.ForwardPktsSent.Value() == 0 {
		t.Fatal("no forward traffic")
	}
	if m.ForwardPktsDelivered.Value() != m.ForwardPktsSent.Value() {
		t.Fatalf("forward loss on ideal channel: %d/%d",
			m.ForwardPktsDelivered.Value(), m.ForwardPktsSent.Value())
	}
}

func TestExplicitReservationPolicyEndToEnd(t *testing.T) {
	n := newTestNetwork(t, func(c *Config) {
		c.Policy = ReserveExplicit
		c.MeanInterarrival = 12 * time.Second
	})
	for i := 0; i < 5; i++ {
		if _, err := n.AddSubscriber(frame.EIN(100+i), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(120); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.ReservationPackets.Value() == 0 {
		t.Fatal("explicit policy sent no reservation packets")
	}
	if m.MessagesDelivered.Value() == 0 {
		t.Fatal("nothing delivered under explicit policy")
	}
	// Conservation still holds.
	if m.MessagesDelivered.Value() > m.MessagesGenerated.Value() {
		t.Fatal("conservation violated")
	}
}

func TestSubscriberAccessors(t *testing.T) {
	n := newTestNetwork(t, nil)
	sub, err := n.AddSubscriber(100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Subscribers(); len(got) != 1 || got[0] != sub {
		t.Fatal("Subscribers() wrong")
	}
	if n.SubscriberByID(3) != nil {
		t.Fatal("unknown ID resolved")
	}
	if err := n.Run(3); err != nil {
		t.Fatal(err)
	}
	if n.SubscriberByID(sub.ID()) != sub {
		t.Fatal("active subscriber not resolvable by ID")
	}
	if n.SubscriberByID(frame.NoUser) != nil {
		t.Fatal("NoUser resolved")
	}
}

func TestInternalErrorAbortsRun(t *testing.T) {
	n := newTestNetwork(t, nil)
	cause := frame.ErrBadPacket
	n.fail("control field encode", cause)
	var ie *InternalError
	err := n.Run(1)
	if !errors.As(err, &ie) {
		t.Fatalf("Run error = %v, want *InternalError", err)
	}
	if ie.Op != "control field encode" || !errors.Is(err, cause) {
		t.Fatalf("InternalError = %+v, want op and wrapped cause preserved", ie)
	}
	if n.Err() == nil {
		t.Fatal("Err() = nil after internal failure")
	}
	// The first failure wins; later ones are ignored.
	n.fail("other", errors.New("second"))
	if got := n.Err().(*InternalError).Op; got != "control field encode" {
		t.Fatalf("Err().Op = %q, want first failure kept", got)
	}
}

// TestUnencodableCF1AbortsCycle pins the CF1 range check that every
// cycle keeps although a fast compiled cycle never encodes its CF1: a
// page for a user ID wider than the paging field's 6 bits aborts the
// next cycle with the control-field encode error, on both engines.
func TestUnencodableCF1AbortsCycle(t *testing.T) {
	for _, disable := range []bool{false, true} {
		n := newTestNetwork(t, func(c *Config) { c.DisableCompiledCycle = disable })
		for i := 0; i < 4; i++ {
			if _, err := n.AddSubscriber(frame.EIN(100+i), false, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Run(3); err != nil {
			t.Fatal(err)
		}
		cycles := n.Cycle()
		n.Base().Page(frame.UserID(200))
		err := n.Run(2)
		var ie *InternalError
		if !errors.As(err, &ie) || ie.Op != "control field encode" || !errors.Is(err, frame.ErrBadPacket) {
			t.Fatalf("DisableCompiledCycle=%v: Run error = %v, want a control field encode InternalError", disable, err)
		}
		if got := n.Cycle(); got != cycles+1 {
			t.Fatalf("DisableCompiledCycle=%v: %d cycles started after the bad page, want the next one only", disable, got-cycles)
		}
	}
}
