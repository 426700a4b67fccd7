package sched

import (
	"sort"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
)

// This file keeps the map-based round-robin scheduler and forward
// assigner as executable references: the array-based versions in
// sched.go must produce exactly their output (see diff_test.go).

// refRoundRobin is RoundRobin as it was written over per-call maps.
type refRoundRobin struct {
	Lump bool

	lastServed frame.UserID
	haveLast   bool
}

func (r *refRoundRobin) Schedule(requests []Request, avail int) []frame.UserID {
	out := refUnassigned(avail)
	users, demand := refDedupe(requests)
	if len(users) == 0 || avail == 0 {
		return out
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	start := 0
	if r.haveLast {
		for i, u := range users {
			if u > r.lastServed {
				start = i
				break
			}
		}
	}

	counts := make(map[frame.UserID]int, len(users))
	var order []frame.UserID
	allocated := 0
	idx := start
	for allocated < avail {
		progress := false
		for n := 0; n < len(users) && allocated < avail; n++ {
			u := users[(idx+n)%len(users)]
			if demand[u] == 0 {
				continue
			}
			if counts[u] == 0 {
				order = append(order, u)
			}
			counts[u]++
			demand[u]--
			allocated++
			r.lastServed = u
			r.haveLast = true
			progress = true
		}
		if !progress {
			break
		}
		idx = start
	}

	if r.Lump {
		pos := 0
		for _, u := range order {
			for n := 0; n < counts[u]; n++ {
				out[pos] = u
				pos++
			}
		}
		return out
	}

	remaining := counts
	pos := 0
	for pos < allocated {
		for n := 0; n < len(order) && pos < allocated; n++ {
			u := order[n]
			if remaining[u] == 0 {
				continue
			}
			out[pos] = u
			remaining[u]--
			pos++
		}
	}
	return out
}

// refForwardConstraints is ForwardConstraints with the transmit
// intervals grouped per user in a map, as the reference reads them.
type refForwardConstraints struct {
	SlotIntervals []phy.Interval
	TxIntervals   map[frame.UserID][]phy.Interval
	CF2User       frame.UserID
	Switch        time.Duration
}

// refAssignForward is AssignForward as it was written over per-call
// maps and half-duplex plans.
func refAssignForward(demands []Request, c refForwardConstraints) []frame.UserID {
	out := refUnassigned(len(c.SlotIntervals))
	users, remaining := refDedupe(demands)
	if len(users) == 0 {
		return out
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	plans := make(map[frame.UserID]*phy.HalfDuplexPlan, len(users))
	for _, u := range users {
		p := &phy.HalfDuplexPlan{Switch: c.Switch}
		for _, iv := range c.TxIntervals[u] {
			if err := p.AddTransmit(iv); err != nil {
				remaining[u] = 0
				break
			}
		}
		plans[u] = p
	}

	for slot, iv := range c.SlotIntervals {
		assigned := false
		for n := 0; n < len(users) && !assigned; n++ {
			u := users[n]
			if remaining[u] == 0 {
				continue
			}
			if slot == 0 && u == c.CF2User {
				continue
			}
			if !plans[u].CanReceive(iv) {
				continue
			}
			if err := plans[u].AddReceive(iv); err != nil {
				continue
			}
			out[slot] = u
			remaining[u]--
			assigned = true
		}
		if assigned {
			for n, u := range users {
				if u == out[slot] {
					users = append(append(append([]frame.UserID{}, users[:n]...), users[n+1:]...), u)
					break
				}
			}
		}
	}
	return out
}

func refUnassigned(n int) []frame.UserID {
	out := make([]frame.UserID, n)
	for i := range out {
		out[i] = frame.NoUser
	}
	return out
}

// refDedupe merges duplicate per-user requests, summing demands.
func refDedupe(requests []Request) ([]frame.UserID, map[frame.UserID]int) {
	demand := make(map[frame.UserID]int, len(requests))
	var users []frame.UserID
	for _, req := range requests {
		if req.Slots <= 0 || !req.User.Valid() {
			continue
		}
		if _, seen := demand[req.User]; !seen {
			users = append(users, req.User)
		}
		demand[req.User] += req.Slots
	}
	return users, demand
}

// refLongestQueueFirst is LongestQueueFirst as it was written over a
// per-call demand map.
func refLongestQueueFirst(requests []Request, avail int) []frame.UserID {
	out := refUnassigned(avail)
	users, demand := refDedupe(requests)
	sort.Slice(users, func(i, j int) bool {
		if demand[users[i]] != demand[users[j]] {
			return demand[users[i]] > demand[users[j]]
		}
		return users[i] < users[j]
	})
	pos := 0
	for _, u := range users {
		for n := 0; n < demand[u] && pos < avail; n++ {
			out[pos] = u
			pos++
		}
	}
	return out
}
