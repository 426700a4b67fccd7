package core

import (
	"strings"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
)

// heapSchedule is the reference for a cycle's firing order: one no-op
// closure per slot action on a bare kernel, scheduled the way cycles
// were before the slot table — CF1, CF2, every GPS slot, every reverse
// data slot, then each assigned forward slot — at the layout's offsets
// and priorities. It returns each action's key in firing order, with
// Seq counted from the cycle's first scheduled action.
func heapSchedule(t *testing.T, layout Layout, cf1 *frame.ControlFields) []sim.Key {
	t.Helper()
	s := sim.New()
	var fired []sim.Key
	var rank uint64
	add := func(at time.Duration, p sim.Priority) {
		key := sim.Key{At: at, Priority: p, Seq: rank}
		rank++
		s.AfterPriority(at, p, func() { fired = append(fired, key) })
	}
	add(layout.CF1.End, sim.PriorityDeliver)
	add(layout.CF2.End, sim.PriorityDeliver)
	for _, iv := range layout.GPS {
		add(iv.Start, sim.PriorityLate)
	}
	for _, iv := range layout.ReverseData {
		add(iv.End, sim.PriorityDeliver)
	}
	for i, iv := range layout.ForwardData {
		if cf1.ForwardSchedule[i] != frame.NoUser {
			add(iv.End, sim.PriorityDeliver)
		}
	}
	// Cycle k reuses cycle k-2's instance, so every action must land
	// before the cycle after next starts, 2·CycleLength after t0.
	if err := s.Run(2*phy.CycleLength - 1); err != nil {
		t.Fatal(err)
	}
	if uint64(len(fired)) != rank {
		t.Fatalf("%d of %d actions land before 2·CycleLength", len(fired), rank)
	}
	return fired
}

// TestCompiledTableMatchesHeapSchedule checks a cycle's slot table
// against heapSchedule: for both formats and several forward
// assignments, the activated instance must yield the same (time,
// priority) sequence and the same sequence numbers relative to its
// cycle's first, and reserve exactly as many numbers as the reference
// scheduled.
func TestCompiledTableMatchesHeapSchedule(t *testing.T) {
	masks := []struct {
		name     string
		assigned func(slot int) bool
	}{
		{"none", func(int) bool { return false }},
		{"all", func(int) bool { return true }},
		{"alternating", func(slot int) bool { return slot%2 == 1 }},
		{"sparse", func(slot int) bool { return slot == 0 || slot == 5 || slot == 17 || slot == 36 }},
	}
	n := newTestNetwork(t, nil)
	k := 0
	for _, format := range []ReverseFormat{Format1, Format2} {
		layout := layoutOf(format)
		for _, m := range masks {
			cf1 := frame.NewControlFields()
			for i := range cf1.ForwardSchedule {
				if m.assigned(i) {
					cf1.ForwardSchedule[i] = frame.UserID(1 + i%8)
				}
			}
			want := heapSchedule(t, layout, cf1)

			t0 := n.Sim().Now()
			ci := n.compiled.activate(k, t0, layout, cf1)
			k++
			var got []sim.Key
			for ci.inUse {
				key := ci.next
				key.At -= t0
				key.Seq -= ci.seq0
				got = append(got, key)
				ci.advance()
			}
			if next, _ := n.Sim().ReserveSeqs(t0, 0); next-ci.seq0 != uint64(len(want)) {
				t.Errorf("%v/%s: reserved %d sequence numbers, want %d", format, m.name, next-ci.seq0, len(want))
			}
			if len(got) != len(want) {
				t.Fatalf("%v/%s: table yields %d actions, heap schedule %d", format, m.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v/%s: action %d is %+v, heap schedule fires %+v", format, m.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScheduleCyclesNumbersAfterPending pins cycle numbering across
// runs: a run scheduled while another is pending continues its
// numbering, so four cycles from two runs are cycles 0–3.
func TestScheduleCyclesNumbersAfterPending(t *testing.T) {
	n := newTestNetwork(t, nil)
	if err := n.ScheduleCycles(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleCycles(2, 2*phy.CycleLength); err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 4; c++ {
		if err := n.Sim().Run(time.Duration(c-1) * phy.CycleLength); err != nil {
			t.Fatal(err)
		}
		if got := n.Cycle(); got != c {
			t.Fatalf("after start %d: Cycle() = %d, want %d", c, got, c)
		}
	}
	if got := n.Metrics().Cycles; got != 4 {
		t.Fatalf("%d cycles begun, want 4", got)
	}
}

// TestScheduleCyclesRefusesOverlap pins the cycle clock's spacing: a
// run whose first start falls less than one CycleLength after the last
// scheduled start — pending or already begun — is refused with an
// error naming both times, and reserves nothing.
func TestScheduleCyclesRefusesOverlap(t *testing.T) {
	n := newTestNetwork(t, nil)
	cl := phy.CycleLength
	if err := n.ScheduleCycles(2, 0); err != nil {
		t.Fatal(err)
	}
	overlap := func(start, last time.Duration) {
		t.Helper()
		next, _ := n.Sim().ReserveSeqs(n.Sim().Now(), 0)
		err := n.ScheduleCycles(1, start)
		if err == nil {
			t.Fatalf("run at %v accepted, although a cycle starts at %v", start, last)
		}
		for _, at := range []time.Duration{start, last} {
			if !strings.Contains(err.Error(), at.String()) {
				t.Fatalf("error %q does not name %v", err, at)
			}
		}
		if after, _ := n.Sim().ReserveSeqs(n.Sim().Now(), 0); after != next {
			t.Fatalf("refused run reserved %d sequence numbers", after-next)
		}
	}
	overlap(cl+cl/2, cl)
	if err := n.ScheduleCycles(1, 2*cl); err != nil {
		t.Fatalf("run one CycleLength after the last start: %v", err)
	}
	if err := n.Sim().Run(2 * cl); err != nil {
		t.Fatal(err)
	}
	// Every start has fired; the last one still bounds the next run.
	overlap(2*cl+cl/2, 2*cl)
	if err := n.ScheduleCycles(1, 3*cl); err != nil {
		t.Fatal(err)
	}
	if err := n.Sim().Run(3*cl + phy.ReverseShift); err != nil {
		t.Fatal(err)
	}
	if got := n.Cycle(); got != 4 {
		t.Fatalf("Cycle() = %d, want 4", got)
	}
}
