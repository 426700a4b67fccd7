package sched

import (
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
)

// TestRoundRobinScheduleAllocsZero guards the hotpathalloc root
// RoundRobin.Schedule: demand sums live in fixed per-ID tables and the
// result reuses the scheduler's buffer.
func TestRoundRobinScheduleAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reqs := []Request{{User: 4, Slots: 3}, {User: 1, Slots: 2}, {User: 4, Slots: 1}, {User: 9, Slots: 5}}
	for _, lump := range []bool{true, false} {
		rr := &RoundRobin{Lump: lump}
		rr.Schedule(reqs, frame.ReverseScheduleEntries)
		if n := testing.AllocsPerRun(500, func() {
			rr.Schedule(reqs, frame.ReverseScheduleEntries)
		}); n != 0 {
			t.Fatalf("lump %v: %v allocs/op, want 0", lump, n)
		}
	}
}

// TestAssignForwardAllocsZero checks the forward assigner fills a
// caller buffer with enough capacity without allocating.
func TestAssignForwardAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var out [frame.ForwardScheduleEntries]frame.UserID
	c := ForwardConstraints{
		SlotIntervals: fwdSlots(frame.ForwardScheduleEntries, 0, 90*time.Millisecond, 10*time.Millisecond),
		TxIntervals:   []TxInterval{{User: 1, Interval: fwdSlots(1, 95*time.Millisecond, 80*time.Millisecond, 0)[0]}},
		CF2User:       2,
	}
	reqs := []Request{{User: 1, Slots: 4}, {User: 2, Slots: 4}, {User: 3, Slots: 2}}
	if n := testing.AllocsPerRun(500, func() {
		AssignForward(out[:0], reqs, c)
	}); n != 0 {
		t.Fatalf("%v allocs/op, want 0", n)
	}
}
