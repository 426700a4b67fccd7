// Package sched implements OSU-MAC's slot scheduling (paper §3.5): the
// round-robin reverse-channel scheduler with post-pass lumping, simpler
// alternatives used for ablation benchmarks, and the forward-channel
// assigner that honours the half-duplex and two-control-field
// constraints.
package sched

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
)

// Request is one subscriber's demand for reverse data slots in the next
// notification cycle, aggregated from explicit reservations, piggyback
// bits and contention-slot data.
type Request struct {
	// User identifies the subscriber.
	User frame.UserID
	// Slots is the number of data slots requested (≥1).
	Slots int
	// Arrival orders requests for FCFS scheduling; lower is earlier.
	Arrival int
}

// ReverseScheduler assigns reverse data slots to requests.
type ReverseScheduler interface {
	// Schedule fills the available slot positions with user IDs. avail
	// lists the assignable slot indices in time order (contention slots
	// are excluded by the caller). The result is parallel to avail;
	// frame.NoUser marks a slot left unassigned. A scheduler may return
	// a buffer it reuses, so the result stays valid only until the next
	// Schedule call; callers copy what they keep.
	Schedule(requests []Request, avail int) []frame.UserID
	// Name identifies the scheduler in experiment output.
	Name() string
}

// userSpace is the number of distinct 6-bit user IDs: every per-user
// table in this package has one entry per ID.
const userSpace = 1 << frame.UserIDBits

// demandTable merges per-user requests: slots sums the valid positive
// requests per user ID, and users lists the requesting users in
// ascending ID order.
type demandTable struct {
	slots [userSpace]int
	users [userSpace]frame.UserID
	n     int
}

// fill merges requests into an empty table. Requests for no slots or
// from an invalid user ID are ignored.
func (t *demandTable) fill(requests []Request) {
	for _, req := range requests {
		if req.Slots > 0 && req.User.Valid() {
			t.slots[req.User] += req.Slots
		}
	}
	for u, d := range t.slots {
		if d > 0 {
			t.users[t.n] = frame.UserID(u)
			t.n++
		}
	}
}

// RoundRobin is the paper's scheduler: it serves one slot per requesting
// user per round, resuming after the last-served user of the previous
// cycle, then lumps each user's slots into a contiguous run so the
// subscriber does not repeatedly switch between transmitting and
// receiving within the cycle (paper §3.5).
type RoundRobin struct {
	// Lump disables the consolidation pass when false-negated; it is on
	// by default via NewRoundRobin and exposed for the ablation bench.
	Lump bool

	lastServed frame.UserID
	haveLast   bool
	out        []frame.UserID // the returned schedule, reused across calls
}

var _ ReverseScheduler = (*RoundRobin)(nil)

// NewRoundRobin returns the paper's configuration (lumping enabled).
func NewRoundRobin() *RoundRobin {
	return &RoundRobin{Lump: true}
}

// Name implements ReverseScheduler.
func (r *RoundRobin) Name() string {
	if r.Lump {
		return "round-robin+lump"
	}
	return "round-robin"
}

// Schedule implements ReverseScheduler. The result is a buffer r reuses
// on its next call.
func (r *RoundRobin) Schedule(requests []Request, avail int) []frame.UserID {
	out := r.out[:0]
	for i := 0; i < avail; i++ {
		out = append(out, frame.NoUser)
	}
	r.out = out
	var t demandTable
	t.fill(requests)
	users, demand := t.users[:t.n], &t.slots
	if len(users) == 0 || avail == 0 {
		return out
	}

	// Resume the rotation after the last-served user.
	start := 0
	if r.haveLast {
		for i, u := range users {
			if u > r.lastServed {
				start = i
				break
			}
		}
	}

	// Round-robin allocation: one slot per user with remaining demand.
	var (
		counts [userSpace]int
		order  [userSpace]frame.UserID // first-allocation order, drives lumping
		nOrder int
	)
	allocated := 0
	for allocated < avail {
		progress := false
		for n := 0; n < len(users) && allocated < avail; n++ {
			u := users[(start+n)%len(users)]
			if demand[u] == 0 {
				continue
			}
			if counts[u] == 0 {
				order[nOrder] = u
				nOrder++
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
	}

	if r.Lump {
		pos := 0
		for _, u := range order[:nOrder] {
			for n := 0; n < counts[u]; n++ {
				out[pos] = u
				pos++
			}
		}
		return out
	}

	// Unlumped: emit in raw round-robin order.
	remaining := &counts
	pos := 0
	for pos < allocated {
		for n := 0; n < nOrder && pos < allocated; n++ {
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

// FCFS serves requests strictly in arrival order until slots run out.
// Used as an ablation baseline: it can starve users under load.
type FCFS struct{}

var _ ReverseScheduler = FCFS{}

// Name implements ReverseScheduler.
func (FCFS) Name() string { return "fcfs" }

// Schedule implements ReverseScheduler.
func (FCFS) Schedule(requests []Request, avail int) []frame.UserID {
	out := unassigned(avail)
	reqs := make([]Request, len(requests))
	copy(reqs, requests)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	pos := 0
	for _, req := range reqs {
		for n := 0; n < req.Slots && pos < avail; n++ {
			out[pos] = req.User
			pos++
		}
	}
	return out
}

// LongestQueueFirst gives all slots to the largest demands first — a
// throughput-greedy ablation baseline with poor fairness.
type LongestQueueFirst struct{}

var _ ReverseScheduler = LongestQueueFirst{}

// Name implements ReverseScheduler.
func (LongestQueueFirst) Name() string { return "longest-queue-first" }

// Schedule implements ReverseScheduler.
func (LongestQueueFirst) Schedule(requests []Request, avail int) []frame.UserID {
	out := unassigned(avail)
	var t demandTable
	t.fill(requests)
	users := t.users[:t.n]
	// Users are in ascending ID order, so a stable sort breaks demand
	// ties by the lower ID.
	slices.SortStableFunc(users, func(a, b frame.UserID) int { return cmp.Compare(t.slots[b], t.slots[a]) })
	pos := 0
	for _, u := range users {
		for n := 0; n < t.slots[u] && pos < avail; n++ {
			out[pos] = u
			pos++
		}
	}
	return out
}

// unassigned returns a slot vector of all frame.NoUser.
func unassigned(n int) []frame.UserID {
	out := make([]frame.UserID, n)
	for i := range out {
		out[i] = frame.NoUser
	}
	return out
}

// Lumped reports whether each user's slots form a single contiguous run
// in the schedule (unassigned slots are transparent): no A…B…A pattern.
func Lumped(schedule []frame.UserID) bool {
	finished := make(map[frame.UserID]bool)
	var current frame.UserID = frame.NoUser
	for _, u := range schedule {
		if u == frame.NoUser {
			continue
		}
		if u == current {
			continue
		}
		if finished[u] {
			return false
		}
		if current != frame.NoUser {
			finished[current] = true
		}
		current = u
	}
	return true
}

// ForwardConstraints carries what the forward assigner must respect for
// one cycle.
type ForwardConstraints struct {
	// SlotIntervals are the forward data slots' air times, in slot-index
	// order, relative to the forward cycle start.
	SlotIntervals []phy.Interval
	// TxIntervals lists every reverse-channel transmit interval of the
	// cycle with its user (same time origin), in any order.
	TxIntervals []TxInterval
	// CF2User is the subscriber listening to the second control-field
	// set; it must not receive forward slot 0 (paper §3.4 problem 1).
	// frame.NoUser when the last reverse slot is unassigned.
	CF2User frame.UserID
	// Switch overrides the half-duplex switch guard; zero means the
	// default 20 ms.
	Switch time.Duration
}

// TxInterval is one reverse-channel transmission of a user.
type TxInterval struct {
	User     frame.UserID
	Interval phy.Interval
}

// AssignForward fills forward data slots round-robin across users with
// forward demand, skipping slots that would violate the half-duplex
// constraint against the user's reverse transmissions or the CF2 rule.
// demands holds each user's queued forward packets. It appends the
// slot → user vector (frame.NoUser = idle), one entry per slot of
// c.SlotIntervals, to dst and returns the extended slice; it allocates
// only when dst lacks the capacity.
func AssignForward(dst []frame.UserID, demands []Request, c ForwardConstraints) []frame.UserID {
	off := len(dst)
	for range c.SlotIntervals {
		dst = append(dst, frame.NoUser)
	}
	out := dst[off:]
	var t demandTable
	t.fill(demands)
	users, remaining := t.users[:t.n], &t.slots
	if len(users) == 0 {
		return dst
	}
	// A transmit interval that is not well-formed makes its user
	// unschedulable this cycle: it would be a scheduling bug upstream.
	for _, tx := range c.TxIntervals {
		if tx.User.Valid() && !tx.Interval.Valid() {
			remaining[tx.User] = 0
		}
	}
	guard := c.Switch
	if guard <= 0 {
		guard = phy.HalfDuplexSwitch
	}

	for slot, iv := range c.SlotIntervals {
		for n, u := range users {
			if remaining[u] == 0 || slot == 0 && u == c.CF2User || !canReceive(u, iv, c.TxIntervals, guard) {
				continue
			}
			out[slot] = u
			remaining[u]--
			// Rotate fairness: move the served user to the back.
			copy(users[n:], users[n+1:])
			users[len(users)-1] = u
			break
		}
	}
	return dst
}

// canReceive reports whether user can receive during iv: iv is
// well-formed and no transmit interval of the user comes within guard
// of it (the half-duplex rule of phy.HalfDuplexPlan).
func canReceive(user frame.UserID, iv phy.Interval, txs []TxInterval, guard time.Duration) bool {
	if !iv.Valid() {
		return false
	}
	padded := phy.Interval{Start: iv.Start - guard, End: iv.End + guard}
	for _, tx := range txs {
		if tx.User == user && padded.Overlaps(tx.Interval) {
			return false
		}
	}
	return true
}
