package sched

import (
	"slices"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
)

// randomRequests draws a request set that exercises every input the
// schedulers must merge or ignore: duplicate users, invalid IDs (the
// NoUser marker and values past 6 bits), zero and negative slot counts.
func randomRequests(rng *sim.RNG) []Request {
	n := rng.Intn(14)
	reqs := make([]Request, n)
	for i := range reqs {
		var u frame.UserID
		switch rng.Intn(10) {
		case 0:
			u = frame.NoUser
		case 1:
			u = frame.UserID(64 + rng.Intn(192))
		case 2, 3, 4:
			u = frame.UserID(rng.Intn(4)) // few IDs: many duplicates
		default:
			u = frame.UserID(rng.Intn(int(frame.MaxUserID) + 1))
		}
		reqs[i] = Request{User: u, Slots: rng.Intn(8) - 1, Arrival: rng.Intn(100)}
	}
	return reqs
}

// TestRoundRobinMatchesReference runs the array-based scheduler and
// the map-based reference side by side over random request sets, with
// the rotation state carried across every call of a sequence.
func TestRoundRobinMatchesReference(t *testing.T) {
	rng := sim.NewRNG(23)
	for seq := 0; seq < 200; seq++ {
		lump := seq%2 == 0
		got, want := &RoundRobin{Lump: lump}, &refRoundRobin{Lump: lump}
		for call := 0; call < 60; call++ {
			reqs := randomRequests(rng)
			avail := rng.Intn(frame.ReverseScheduleEntries + 1) // zero slots included
			g := slices.Clone(got.Schedule(reqs, avail))
			w := want.Schedule(reqs, avail)
			if !slices.Equal(g, w) {
				t.Fatalf("seq %d call %d (lump %v, avail %d, reqs %v): got %v, want %v",
					seq, call, lump, avail, reqs, g, w)
			}
			if got.lastServed != want.lastServed || got.haveLast != want.haveLast {
				t.Fatalf("seq %d call %d: rotation state (%v, %v), want (%v, %v)",
					seq, call, got.lastServed, got.haveLast, want.lastServed, want.haveLast)
			}
		}
	}
}

func TestLongestQueueFirstMatchesReference(t *testing.T) {
	rng := sim.NewRNG(29)
	for i := 0; i < 2000; i++ {
		reqs := randomRequests(rng)
		avail := rng.Intn(frame.ReverseScheduleEntries + 1)
		got := LongestQueueFirst{}.Schedule(reqs, avail)
		if want := refLongestQueueFirst(reqs, avail); !slices.Equal(got, want) {
			t.Fatalf("avail %d reqs %v: got %v, want %v", avail, reqs, got, want)
		}
	}
}

// TestAssignForwardMatchesReference compares the array-based forward
// assigner with the map-based reference over random demands, transmit
// intervals (some malformed), slot grids, CF2 listeners and guards.
func TestAssignForwardMatchesReference(t *testing.T) {
	rng := sim.NewRNG(31)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for i := 0; i < 3000; i++ {
		slots := make([]phy.Interval, rng.Intn(frame.ForwardScheduleEntries+1))
		at := ms(rng.Intn(20))
		for s := range slots {
			w := ms(60 + rng.Intn(40))
			if rng.Intn(40) == 0 {
				w = 0 // a malformed slot nobody can receive in
			}
			slots[s] = phy.Interval{Start: at, End: at + w}
			at += w + ms(rng.Intn(10))
		}
		var txs []TxInterval
		byUser := map[frame.UserID][]phy.Interval{}
		for n := rng.Intn(18); n > 0; n-- {
			u := frame.UserID(rng.Intn(8))
			start := ms(rng.Intn(4000))
			iv := phy.Interval{Start: start, End: start + ms(80)}
			if rng.Intn(30) == 0 {
				iv.End = iv.Start - ms(1) // malformed: its user is unschedulable
			}
			txs = append(txs, TxInterval{User: u, Interval: iv})
			byUser[u] = append(byUser[u], iv)
		}
		cf2 := frame.NoUser
		if rng.Bool(0.7) {
			cf2 = frame.UserID(rng.Intn(8))
		}
		var guard time.Duration
		if rng.Bool(0.3) {
			guard = ms(rng.Intn(50))
		}
		reqs := randomRequests(rng)
		for r := range reqs {
			reqs[r].Slots = rng.Intn(12) - 1
		}
		prefix := []frame.UserID{7, 9}
		got := AssignForward(slices.Clone(prefix), reqs, ForwardConstraints{
			SlotIntervals: slots, TxIntervals: txs, CF2User: cf2, Switch: guard,
		})
		want := refAssignForward(reqs, refForwardConstraints{
			SlotIntervals: slots, TxIntervals: byUser, CF2User: cf2, Switch: guard,
		})
		if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("case %d: got %v, want %v after the prefix %v", i, got, want, prefix)
		}
	}
}
