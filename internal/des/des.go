// Package des implements a small deterministic discrete-event
// simulation kernel: a virtual clock and a future-event list.
//
// The kernel is the substrate for the WorkflowSim-equivalent cloud
// simulator (package sim). It is intentionally minimal: events are
// closures scheduled at absolute virtual times; ties are broken first
// by an integer priority and then by insertion order, so a simulation
// driven only by a seeded random source is bit-for-bit reproducible.
package des

import (
	"errors"
	"fmt"
	"math"
)

// Handler is the body of a scheduled event. It runs with the
// simulation clock set to the event's time and may schedule further
// events.
type Handler func()

// ErrHorizon is returned by Run when the simulation stops because the
// configured time horizon was reached while events remained pending.
var ErrHorizon = errors.New("des: time horizon reached with pending events")

// ErrInterrupted is wrapped by the error Run returns after Interrupt
// was called without a cause.
var ErrInterrupted = errors.New("des: run interrupted")

// event is the recyclable half of a future-event-list entry; its
// ordering key (time, priority, seq) lives inline in the queue's Item.
// Executed events are recycled through the simulator's free list.
type event struct {
	fn Handler
}

// Simulator owns the virtual clock and the future-event list.
// The zero value is not usable; call New.
type Simulator struct {
	now   float64
	queue Heap[*event] // keyed (time, priority, seq): seq is unique
	// lane[head:] holds the pending events scheduled at now, in Key
	// order. A zero-delay event (the simulator's releases and
	// scheduling passes) lands here instead of sifting through the
	// heap; the next event is the lower-keyed of the lane head and the
	// heap top. The clock advances only past an empty lane.
	lane    []Item[*event]
	head    int
	seq     int64
	horizon float64 // 0 means unbounded
	steps   int64   // events executed
	running bool
	stopErr error    // set by Interrupt; Run returns it before the next event
	free    []*event // recycled events, reused by AtPriority

	// Kernel counters (see Stats): freelist reuse and the queue's
	// high-water mark. seq doubles as the scheduled-event count.
	freeHits   int64
	freeMisses int64
	maxDepth   int
}

// Stats are the kernel's instrumentation counters, cheap enough to
// maintain unconditionally (plain integer bumps on the scheduling
// path).
type Stats struct {
	// Steps counts events executed; Scheduled counts events queued
	// (executed + still pending).
	Steps     int64
	Scheduled int64
	// FreelistHits counts event schedules served by recycling an
	// executed event; FreelistMisses counts fresh allocations.
	FreelistHits   int64
	FreelistMisses int64
	// MaxQueueDepth is the future-event list's high-water mark.
	MaxQueueDepth int
}

// FreelistHitRate returns the fraction of schedules served from the
// freelist (0 when nothing was scheduled).
func (s Stats) FreelistHitRate() float64 {
	total := s.FreelistHits + s.FreelistMisses
	if total == 0 {
		return 0
	}
	return float64(s.FreelistHits) / float64(total)
}

// Stats returns the kernel counters accumulated since New (or the
// last Reset).
func (s *Simulator) Stats() Stats {
	return Stats{
		Steps:          s.steps,
		Scheduled:      s.seq,
		FreelistHits:   s.freeHits,
		FreelistMisses: s.freeMisses,
		MaxQueueDepth:  s.maxDepth,
	}
}

// New returns an empty simulator with the clock at zero and no
// horizon.
func New() *Simulator {
	return &Simulator{horizon: math.Inf(1)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() int64 { return s.steps }

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int { return len(s.queue) + len(s.lane) - s.head }

// SetHorizon bounds Run: the simulation stops (with ErrHorizon) before
// executing any event strictly later than t. A non-positive t removes
// the bound.
func (s *Simulator) SetHorizon(t float64) {
	if t <= 0 {
		s.horizon = math.Inf(1)
		return
	}
	s.horizon = t
}

// Interrupt makes Run stop before executing any further event,
// returning err (ErrInterrupted when err is nil). It is meant to be
// called from inside an event handler — e.g. when a wrapping context
// is canceled — and leaves pending events queued; a later Reset
// clears both them and the stop cause.
func (s *Simulator) Interrupt(err error) {
	if err == nil {
		err = ErrInterrupted
	}
	s.stopErr = err
}

// At schedules fn at absolute virtual time t with priority 0.
// Scheduling in the past panics: it is always a logic error in a
// discrete-event model.
func (s *Simulator) At(t float64, fn Handler) {
	s.AtPriority(t, 0, fn)
}

// AtPriority schedules fn at absolute time t. Among events with equal
// time, lower priority runs first; equal priorities run in insertion
// order.
func (s *Simulator) AtPriority(t float64, priority int, fn Handler) {
	if fn == nil {
		panic("des: nil handler")
	}
	if t < s.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("des: schedule at NaN")
	}
	s.seq++
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.fn = fn
		s.freeHits++
	} else {
		ev = &event{fn: fn}
		s.freeMisses++
	}
	k := Key{Time: t, Tie: priority, Seq: s.seq}
	if t == s.now {
		// seq is the largest yet, so the event goes after every lane
		// entry of its priority or lower.
		s.lane = append(s.lane, Item[*event]{})
		i := len(s.lane) - 1
		for ; i > s.head && s.lane[i-1].Tie > priority; i-- {
			s.lane[i] = s.lane[i-1]
		}
		s.lane[i] = Item[*event]{ev, k}
	} else {
		s.queue.Push(k, ev)
	}
	if d := s.Pending(); d > s.maxDepth {
		s.maxDepth = d
	}
}

// next returns the earliest pending item, and whether it is the lane
// head rather than the heap top; nil when nothing is pending.
func (s *Simulator) next() (*Item[*event], bool) {
	if s.head < len(s.lane) {
		x := &s.lane[s.head]
		if len(s.queue) == 0 || x.Before(&s.queue[0].Key) {
			return x, true
		}
	} else if len(s.queue) == 0 {
		return nil, false
	}
	return &s.queue[0], false
}

// pop removes the item next returned and returns its event.
func (s *Simulator) pop(x *Item[*event], inLane bool) *event {
	if !inLane {
		return s.queue.Pop()
	}
	ev := x.Val
	*x = Item[*event]{}
	s.head++
	if s.head == len(s.lane) {
		s.lane, s.head = s.lane[:0], 0
	}
	return ev
}

// recycle returns a popped event to the free list.
func (s *Simulator) recycle(ev *event) {
	ev.fn = nil
	s.free = append(s.free, ev)
}

// After schedules fn delay time units from now (priority 0).
func (s *Simulator) After(delay float64, fn Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	s.At(s.now+delay, fn)
}

// Step executes the earliest pending event, advancing the clock.
// It reports whether an event was executed (false when the queue is
// empty).
func (s *Simulator) Step() bool {
	x, inLane := s.next()
	if x == nil {
		return false
	}
	s.fire(x, inLane)
	return true
}

// fire pops the item next returned and runs its handler with the
// clock at the item's time.
func (s *Simulator) fire(x *Item[*event], inLane bool) {
	s.now = x.Time
	ev := s.pop(x, inLane)
	s.steps++
	fn := ev.fn
	// Recycle before running: the handler may schedule into the slot.
	s.recycle(ev)
	fn()
}

// Run executes events until the queue drains or the horizon is hit.
// It returns nil on a drained queue and ErrHorizon otherwise.
func (s *Simulator) Run() error {
	if s.running {
		panic("des: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.stopErr == nil {
		// Peek without popping so a horizon stop leaves the event
		// pending.
		next, inLane := s.next()
		if next == nil {
			break
		}
		if next.Time > s.horizon {
			return ErrHorizon
		}
		s.fire(next, inLane)
	}
	// An interrupt is honoured even when the interrupting event was
	// the last one queued; the stop reason is consumed either way.
	if err := s.stopErr; err != nil {
		s.stopErr = nil
		return err
	}
	return nil
}

// Reset empties the queue and the lane and rewinds the clock to zero,
// clearing the kernel counters. Pending events are recycled into the
// free list and the backing arrays are kept, so a reset simulator
// re-runs without re-allocating its event pool (the sim.Engine.Reset
// episode loop).
func (s *Simulator) Reset() {
	for _, x := range s.queue {
		s.recycle(x.Val)
	}
	for i := s.head; i < len(s.lane); i++ {
		s.recycle(s.lane[i].Val)
	}
	clear(s.lane)
	s.queue = s.queue[:0]
	s.lane, s.head = s.lane[:0], 0
	s.now = 0
	s.seq = 0
	s.steps = 0
	s.stopErr = nil
	s.freeHits = 0
	s.freeMisses = 0
	s.maxDepth = 0
}
