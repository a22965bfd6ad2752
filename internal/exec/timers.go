package exec

import "container/heap"

// timerHeap is the master's wake-up heap: an indexed min-heap holding
// one entry per task that needs a wake-up — the lease of every running
// attempt, and the backoff gate (nextAt) of every queued task still
// waiting one out. Swap keeps each task's taskState.tpos current (-1
// without an entry), so arming, moving and cancelling a timer cost
// O(log n), and the earliest wake-up is the root, where a scan of every
// task used to find it.
//
// Invariant, kept by the handlers that change a task's state: only
// running tasks and queued tasks have entries, and an entry's key is
// wakeAt, so a handler that moves a lease or starts an attempt calls
// setTimer before anything else touches the heap, and one that ends an
// attempt calls clearTimer. A queued task's gate entry may outlive its
// time — a passed gate wakes nothing — and is dropped when it surfaces
// at the root.
type timerHeap []*taskState

// wakeAt is the instant ts's timer entry stands for: its lease while an
// attempt runs, else its backoff gate.
func (ts *taskState) wakeAt() float64 {
	if ts.running {
		return ts.lease
	}
	return ts.nextAt
}

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].wakeAt() < h[j].wakeAt() }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].tpos, h[j].tpos = int32(i), int32(j)
}

func (h *timerHeap) Push(x any) {
	ts := x.(*taskState)
	ts.tpos = int32(len(*h))
	*h = append(*h, ts)
}

func (h *timerHeap) Pop() any {
	old := *h
	ts := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	ts.tpos = -1
	return ts
}

// setTimer arms ts's wake-up at wakeAt, or moves it there.
func (m *Master) setTimer(ts *taskState) {
	if ts.tpos < 0 {
		heap.Push(&m.timers, ts)
	} else {
		heap.Fix(&m.timers, int(ts.tpos))
	}
}

// clearTimer cancels ts's wake-up, if it has one.
func (m *Master) clearTimer(ts *taskState) {
	if ts.tpos >= 0 {
		heap.Remove(&m.timers, int(ts.tpos))
	}
}
