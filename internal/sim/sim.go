// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel models virtual time as a time.Duration offset from the start
// of the simulation. Events are closures scheduled at absolute virtual
// times and executed in (time, priority, sequence) order, so two events
// scheduled for the same instant run in a deterministic order: first by
// ascending priority, then by scheduling order.
//
// The kernel is single-threaded by design: all protocol entities run in
// the event loop, which removes the need for locking inside protocol
// state machines and makes every run exactly reproducible for a given
// seed. This mirrors the JavaSim environment used by the OSU-MAC paper.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Priority orders events that fire at the same virtual instant. Lower
// values run first.
type Priority int

// Standard priorities. Most events use PriorityNormal; channel-delivery
// events use PriorityDeliver so that receptions complete before the next
// slot's control logic runs at the same instant. PriorityBackbone is
// reserved for cross-cell backbone deliveries: it sorts after every
// local event at the same instant, so a delivery's position in the
// total order depends only on its (time, source cell, source sequence)
// key and never on the scheduling interleaving of unrelated cells —
// the property that lets the backbone's per-cell kernels reproduce the
// order of one shared kernel exactly (see internal/backbone, whose test
// oracle runs every cell on one kernel).
const (
	PriorityDeliver  Priority = -10
	PriorityNormal   Priority = 0
	PriorityLate     Priority = 10
	PriorityBackbone Priority = 20
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the horizon was reached.
var ErrStopped = errors.New("simulation stopped")

// Key is a work item's position in the kernel's total firing order:
// virtual time, then priority, then sequence number. Heap events and
// source actions compare by the same Key, and sequence numbers are
// unique per kernel, so the order never depends on how the heap or a
// source stores its items.
type Key struct {
	At       time.Duration
	Priority Priority
	Seq      uint64
}

// Before reports whether k fires before o.
func (k Key) Before(o Key) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	if k.Priority != o.Priority {
		return k.Priority < o.Priority
	}
	return k.Seq < o.Seq
}

// event is one scheduled closure. The kernel keeps events by value in
// its heap.
type event struct {
	Key
	fn func()
}

// eventQueue is a binary min-heap of events on their Key.
type eventQueue []event

// push adds ev, sifting it up to its place.
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].Before(h[parent].Key) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The queue must be
// non-empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // drop the closure reference
	h = h[:last]
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].Before(h[child].Key) {
			child = r
		}
		if !h[child].Before(h[i].Key) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	*q = h
	return top
}

// ActionSource feeds pre-sequenced actions into the kernel's main loop
// without per-action heap events. A source exposes its earliest pending
// action via PeekAction; the kernel merges it against the event heap on
// the usual Key order and calls FireAction when the source wins.
// Sequence numbers must come from ReserveSeqs so that source actions
// and heap events share one total order.
//
// Sources exist for compiled executors (e.g. the core compiled-cycle
// fast path) whose action tables are known ahead of time; everything
// else should keep using At/After.
type ActionSource interface {
	// PeekAction returns the source's earliest pending action without
	// consuming it. ok is false when the source is idle.
	PeekAction() (key Key, ok bool)
	// FireAction executes the action PeekAction reported and advances
	// past it. The kernel has already moved the clock to its time.
	FireAction()
}

// Simulator is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with New.
type Simulator struct {
	now     time.Duration
	queue   eventQueue
	seq     uint64
	stopped bool
	fired   uint64
	sources []ActionSource
}

// New returns an empty simulator positioned at virtual time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// EventsFired returns the number of events executed so far. It is useful
// for sanity checks and benchmarks.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending returns the number of heap events still queued. Actions held
// by attached ActionSources are not counted.
func (s *Simulator) Pending() int { return len(s.queue) }

// At schedules fn at the absolute virtual time at with the given
// priority. Scheduling in the past is an error: the kernel never rewinds
// the clock.
func (s *Simulator) At(at time.Duration, p Priority, fn func()) error {
	if err := s.checkAt(at); err != nil {
		return err
	}
	s.schedule(at, p, fn)
	return nil
}

// checkAt refuses a scheduling time before now: the kernel never
// rewinds the clock.
func (s *Simulator) checkAt(at time.Duration) error {
	if at < s.now {
		return fmt.Errorf("sim: schedule at %v before now %v", at, s.now)
	}
	return nil
}

// After schedules fn delay after the current virtual time at normal
// priority. Negative delays are clamped to zero.
func (s *Simulator) After(delay time.Duration, fn func()) {
	s.AfterPriority(delay, PriorityNormal, fn)
}

// AfterPriority schedules fn delay after the current time with an
// explicit priority. Negative delays are clamped to zero.
func (s *Simulator) AfterPriority(delay time.Duration, p Priority, fn func()) {
	s.schedule(s.now+max(delay, 0), p, fn)
}

// schedule queues fn at at, which the caller guarantees is not before
// now, under the next sequence number.
func (s *Simulator) schedule(at time.Duration, p Priority, fn func()) {
	s.queue.push(event{Key{at, p, s.seq}, fn})
	s.seq++
}

// AttachSource registers an ActionSource with the kernel. Sources stay
// attached for the simulator's lifetime; an idle source costs one
// PeekAction call per loop iteration.
func (s *Simulator) AttachSource(src ActionSource) {
	s.sources = append(s.sources, src)
}

// ReserveSeqs hands out n consecutive sequence numbers for a run of
// source actions whose first fires at `at`, and returns the first. It
// consumes them exactly as n successive At calls made now would, so a
// source can hold a whole run of pre-sequenced actions (a cell's cycle
// starts, or one cycle's slot actions) without queuing n heap events,
// and its actions interleave with heap events deterministically. Like
// At it refuses a time before now, reserving nothing.
func (s *Simulator) ReserveSeqs(at time.Duration, n int) (uint64, error) {
	if err := s.checkAt(at); err != nil {
		return 0, err
	}
	seq := s.seq
	s.seq += uint64(max(n, 0))
	return seq, nil
}

// nextUp selects the earliest pending work item — the heap head or an
// attached source's next action — by Key. src is nil when the heap head
// wins; ok is false when nothing is pending at all.
func (s *Simulator) nextUp() (src ActionSource, key Key, ok bool) {
	if len(s.queue) > 0 {
		key, ok = s.queue[0].Key, true
	}
	for _, cand := range s.sources {
		if ck, cok := cand.PeekAction(); cok && (!ok || ck.Before(key)) {
			src, key, ok = cand, ck, true
		}
	}
	return src, key, ok
}

// Stop halts the event loop after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue drains or virtual time would pass
// horizon. Events scheduled exactly at the horizon still run, and the
// clock ends at the horizon, or stays where it is if it is already
// later. It returns ErrStopped if Stop was called, otherwise nil.
func (s *Simulator) Run(horizon time.Duration) error {
	return s.run(horizon, true)
}

// RunBefore executes events strictly before limit: every queued event
// or source action with at < limit fires, events at or after limit stay
// queued, and on normal completion the clock is left at limit, or where
// it is if it is already later. It is the windowed counterpart of Run
// (whose horizon is inclusive), built for conservative-lookahead shard
// scheduling: a shard may safely execute everything before the next
// barrier time while cross-shard deliveries are guaranteed to be
// scheduled at or after it. Repeated RunBefore calls with increasing
// limits partition a run into windows that fire exactly the events one
// big Run would have fired, in the same order. It returns ErrStopped if
// Stop was called, leaving the clock at the stopping event's time.
func (s *Simulator) RunBefore(limit time.Duration) error {
	return s.run(limit, false)
}

// run is the event loop behind Run (inclusive of limit) and RunBefore
// (exclusive). A Stop surfaces before the limit is tested, and the
// clock never moves backwards.
func (s *Simulator) run(limit time.Duration, inclusive bool) error {
	s.stopped = false
	for {
		src, key, ok := s.nextUp()
		if !ok {
			break
		}
		if s.stopped {
			return ErrStopped
		}
		if key.At > limit || (key.At == limit && !inclusive) {
			break
		}
		s.now = key.At
		s.fired++
		if src != nil {
			src.FireAction()
			continue
		}
		if fn := s.queue.pop().fn; fn != nil {
			fn()
		}
	}
	if s.now < limit {
		s.now = limit
	}
	return nil
}
