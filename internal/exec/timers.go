package exec

import (
	"slices"

	"reassign/internal/des"
)

// The master's wake-ups live in Master.timers, a des.Heap keyed
// (instant, task index) with an entry for every task that needs one —
// the lease of every running attempt, the backoff gate (nextAt) of
// every queued task still waiting one out — so the earliest wake-up is
// the root, where a scan of every task used to find it.
//
// Entries are invalidated lazily, as des cancels events. Arming an
// untimed task sets taskState.timed and pushes an entry at its wakeAt;
// cancelling clears timed and leaves the entry stale. A timed task's
// wake-up only ever moves later (a heartbeat extends its lease, a
// dispatch swaps a passed gate for a lease), and the move pushes
// nothing: the old entry, now early, is re-pushed at wakeAt when it
// reaches the root. Stale entries are dropped there, or by
// compactTimers. So every timed task has an entry at or before its
// wakeAt, and the settled root is the earliest wake-up. Duplicate
// entries (a stale one re-pushed after its task was armed again) are
// harmless: the first consumed clears timed.
//
// Only running and queued tasks are timed: a handler that moves a lease
// or starts an attempt calls setTimer, one that ends an attempt calls
// clearTimer. A passed backoff gate wakes nothing and is dropped when
// it reaches the root.

// wakeAt is the instant ts's timer stands for: its lease while an
// attempt runs, else its backoff gate.
func (ts *taskState) wakeAt() float64 {
	if ts.running {
		return ts.lease
	}
	return ts.nextAt
}

// setTimer arms ts's wake-up at wakeAt, or notes that it moved there
// (later).
func (m *Master) setTimer(ts *taskState) {
	if ts.timed {
		return
	}
	ts.timed = true
	if len(m.timers) == cap(m.timers) {
		m.compactTimers()
	}
	m.pushTimer(ts)
}

func (m *Master) pushTimer(ts *taskState) {
	m.timers.Push(des.Key{Time: ts.wakeAt(), Seq: int64(ts.a.Index)}, struct{}{})
}

// clearTimer cancels ts's wake-up, if it has one.
func (m *Master) clearTimer(ts *taskState) { ts.timed = false }

// compactTimers drops every stale entry, re-pushing the timed ones at
// their wakeAt into the same backing array, and doubles the capacity
// when fewer than half went. Stale entries behind a live root — the
// leases of finished attempts behind a long one — thus cost no
// allocation, and a heap that does grow has room for as many pushes
// again before the next pass.
func (m *Master) compactTimers() {
	old := m.timers
	m.timers = m.timers[:0]
	for _, it := range old {
		if ts := m.tasks[it.Seq]; ts.timed {
			m.pushTimer(ts)
		}
	}
	if 2*len(m.timers) > cap(m.timers) {
		m.timers = slices.Grow(m.timers, cap(m.timers))
	}
}

// liveRoot settles the root of the timer heap — dropping stale entries,
// re-pushing early ones at their task's wakeAt — and returns the root's
// task, or nil once the heap is empty.
func (m *Master) liveRoot() *taskState {
	for len(m.timers) > 0 {
		top := &m.timers[0]
		ts := m.tasks[top.Seq]
		if ts.timed && top.Time == ts.wakeAt() {
			return ts
		}
		m.timers.Pop()
		if ts.timed {
			m.pushTimer(ts)
		}
	}
	return nil
}

// popTimer removes the live root, ts's entry, and cancels its timer.
func (m *Master) popTimer(ts *taskState) {
	m.timers.Pop()
	ts.timed = false
}
