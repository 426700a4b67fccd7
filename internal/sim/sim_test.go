package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

// horizon bounds the tests' runs; it lies past every event they
// schedule.
const horizon = time.Hour

func TestRunOrdersEventsByTime(t *testing.T) {
	s := New()
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	if err := s.Run(horizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantOrdersByPriorityThenSeq(t *testing.T) {
	s := New()
	var got []string
	at := 5 * time.Millisecond
	if err := s.At(at, PriorityLate, func() { got = append(got, "late") }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(at, PriorityNormal, func() { got = append(got, "n1") }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(at, PriorityDeliver, func() { got = append(got, "deliver") }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(at, PriorityNormal, func() { got = append(got, "n2") }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	want := []string{"deliver", "n1", "n2", "late"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulingInPastFails(t *testing.T) {
	s := New()
	s.After(10*time.Millisecond, func() {
		if err := s.At(5*time.Millisecond, PriorityNormal, func() {}); err == nil {
			t.Error("scheduling in the past should fail")
		}
	})
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New()
	firedAt := time.Duration(-1)
	s.After(time.Millisecond, func() {
		s.After(-time.Second, func() { firedAt = s.Now() })
	})
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if firedAt != time.Millisecond {
		t.Fatalf("clamped event fired at %v, want 1ms", firedAt)
	}
}

func TestHorizonStopsAndAdvancesClock(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.After(d, func() { fired = append(fired, d) })
	}
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (horizon-inclusive)", len(fired))
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("now = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	// Resuming runs the remaining event.
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events after resume, want 3", len(fired))
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("now = %v, want horizon 5s on idle queue", s.Now())
	}
}

func TestStopHaltsLoop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	err := s.Run(horizon)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEventsFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if s.EventsFired() != 7 {
		t.Fatalf("fired = %d, want 7", s.EventsFired())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock matches each event's scheduled time.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fireTimes []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Microsecond
			if err := s.At(at, PriorityNormal, func() {
				if s.Now() != at {
					t.Errorf("clock %v != scheduled %v", s.Now(), at)
				}
				fireTimes = append(fireTimes, s.Now())
			}); err != nil {
				return false
			}
		}
		if err := s.Run(horizon); err != nil {
			return false
		}
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: FIFO among equal (time, priority) events.
func TestPropertySameInstantFIFO(t *testing.T) {
	f := func(n uint8) bool {
		s := New()
		count := int(n%64) + 1
		var got []int
		for i := 0; i < count; i++ {
			i := i
			if err := s.At(time.Millisecond, PriorityNormal, func() {
				got = append(got, i)
			}); err != nil {
				return false
			}
		}
		if err := s.Run(horizon); err != nil {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return len(got) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAfterPriorityOrdersAtSameInstant(t *testing.T) {
	s := New()
	var got []string
	s.AfterPriority(time.Millisecond, PriorityLate, func() { got = append(got, "late") })
	s.AfterPriority(time.Millisecond, PriorityDeliver, func() { got = append(got, "deliver") })
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "deliver" || got[1] != "late" {
		t.Fatalf("order = %v", got)
	}
	// Negative delay clamps like After.
	fired := false
	s.AfterPriority(-time.Second, PriorityNormal, func() { fired = true })
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("clamped AfterPriority event did not fire")
	}
}

func TestRunBeforeIsExclusive(t *testing.T) {
	s := New()
	var got []int
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	if err := s.RunBefore(20 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("fired %v, want only the event before the limit", got)
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("now = %v, want the limit", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
}

func TestRunBeforeWindowsEqualOneRun(t *testing.T) {
	schedule := func(s *Simulator, got *[]int) {
		for i, at := range []time.Duration{5, 10, 10, 15, 20, 25, 30} {
			i := i
			p := PriorityNormal
			if i == 2 {
				p = PriorityBackbone
			}
			if err := s.At(at*time.Millisecond, p, func() { *got = append(*got, i) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	one := New()
	var wantOrder []int
	schedule(one, &wantOrder)
	if err := one.Run(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	win := New()
	var got []int
	schedule(win, &got)
	// Windows land both between events and exactly on event times; the
	// final inclusive Run picks up events at the horizon itself.
	for _, limit := range []time.Duration{7, 10, 20, 28} {
		if err := win.RunBefore(limit * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if win.Now() != limit*time.Millisecond {
			t.Fatalf("now = %v, want %v", win.Now(), limit*time.Millisecond)
		}
	}
	if err := win.Run(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantOrder) {
		t.Fatalf("windowed run fired %v, one-shot fired %v", got, wantOrder)
	}
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("windowed order %v != one-shot order %v", got, wantOrder)
		}
	}
	if win.EventsFired() != one.EventsFired() {
		t.Fatalf("fired %d events, want %d", win.EventsFired(), one.EventsFired())
	}
}

func TestRunBeforeStop(t *testing.T) {
	s := New()
	s.After(10*time.Millisecond, func() { s.Stop() })
	s.After(20*time.Millisecond, func() { t.Fatal("event after stop fired") })
	if err := s.RunBefore(50 * time.Millisecond); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("now = %v, want the stopping event's time", s.Now())
	}
}

func TestRunBeforePastLimitIsNoOp(t *testing.T) {
	s := New()
	s.After(40*time.Millisecond, func() {})
	if err := s.Run(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.RunBefore(10 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("now = %v, clock must never rewind", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want the future event untouched", s.Pending())
	}
}

// TestEarlierLimitKeepsClock pins the clock's monotonicity across
// calls: a Run or RunBefore whose limit is before now, with work still
// pending, leaves the clock where it is, so At still refuses times
// before it.
func TestEarlierLimitKeepsClock(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*Simulator, time.Duration) error
	}{
		{"Run", (*Simulator).Run},
		{"RunBefore", (*Simulator).RunBefore},
	} {
		name, run := tc.name, tc.run
		s := New()
		s.After(10*time.Second, func() {})
		s.After(30*time.Second, func() {})
		if err := s.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := run(s, 5*time.Second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Now() != 20*time.Second {
			t.Fatalf("%s(5s) moved the clock from 20s to %v", name, s.Now())
		}
		if err := s.At(6*time.Second, PriorityNormal, func() {}); err == nil {
			t.Fatalf("after %s(5s): At(6s) accepted before the event that fired at 10s", name)
		}
		if s.Pending() != 1 {
			t.Fatalf("%s: pending = %d, want the 30s event untouched", name, s.Pending())
		}
	}
}

func TestPriorityBackboneSortsAfterLocalEvents(t *testing.T) {
	s := New()
	var got []string
	at := 5 * time.Millisecond
	if err := s.At(at, PriorityBackbone, func() { got = append(got, "bb") }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(at, PriorityLate, func() { got = append(got, "late") }); err != nil {
		t.Fatal(err)
	}
	if err := s.At(at, PriorityNormal, func() { got = append(got, "normal") }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	want := []string{"normal", "late", "bb"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestReserveSeqsMatchesAt pins ReserveSeqs to the numbers n At calls
// would have consumed, and to At's refusal of a time before now. A run
// of zero reserves nothing and returns the next free number.
func TestReserveSeqsMatchesAt(t *testing.T) {
	s := New()
	if err := s.At(time.Millisecond, PriorityNormal, func() {}); err != nil {
		t.Fatal(err)
	}
	first, err := s.ReserveSeqs(2*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first reserved seq = %d, want 1", first)
	}
	if next, _ := s.ReserveSeqs(s.Now(), 0); next != 4 {
		t.Fatalf("seq after a run of 3 = %d, want 4", next)
	}
	if err := s.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, rerr := s.ReserveSeqs(time.Millisecond, 2)
	aerr := s.At(time.Millisecond, PriorityNormal, func() {})
	if rerr == nil || aerr == nil || rerr.Error() != aerr.Error() {
		t.Fatalf("past run: ReserveSeqs = %v, At = %v: want At's error", rerr, aerr)
	}
	if next, _ := s.ReserveSeqs(s.Now(), 0); next != 4 {
		t.Fatalf("a refused run reserved sequence numbers: next = %d, want 4", next)
	}
}
