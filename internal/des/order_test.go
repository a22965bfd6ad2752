package des

import (
	"container/heap"
	"math"
	"slices"
	"testing"
)

// refEvent and refQueue are the kernel's original future-event list:
// pointer entries ordered by (time, priority, seq) through
// container/heap. They are the reference the typed queue must match.
type refEvent struct {
	time     float64
	priority int
	seq      int64
	fn       func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].priority != q[j].priority {
		return q[i].priority < q[j].priority
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *refQueue) Push(x any) { *q = append(*q, x.(*refEvent)) }

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// refSim is the minimal simulator around refQueue: the clock, step
// and reset, with none of the freelist or counters.
type refSim struct {
	now   float64
	queue refQueue
	seq   int64
}

func (r *refSim) at(t float64, priority int, fn func()) {
	r.seq++
	heap.Push(&r.queue, &refEvent{time: t, priority: priority, seq: r.seq, fn: fn})
}

func (r *refSim) step() bool {
	if len(r.queue) == 0 {
		return false
	}
	ev := heap.Pop(&r.queue).(*refEvent)
	r.now = ev.time
	ev.fn()
	return true
}

func (r *refSim) reset() {
	r.queue = r.queue[:0]
	r.now, r.seq = 0, 0
}

// FuzzKernelOrder feeds one byte-coded op stream — schedule,
// prioritized schedule, step, reset, and a schedule whose handler
// schedules two follow-ups at its own instant — to the kernel and to
// refSim, and requires the same events to fire in the same order, the
// same clock and the same pending count after every op. Times are coarse (halves up to 15.5 ahead) and
// priorities span -3..4, so equal-time ties of mixed priority are the
// common case rather than the exception. The follow-ups are the
// simulator's pattern (a completion releases its children, each
// release posts a scheduling pass): they land in the kernel's
// same-instant lane and must interleave with the heap's events at that
// instant by priority and insertion order.
func FuzzKernelOrder(f *testing.F) {
	// Equal-time ties: priorities 2, -1, 0, -3 at t=1, then drained.
	f.Add([]byte{1, 0x15, 1, 0x12, 0, 0x10, 1, 0x10, 3, 0, 3, 0, 3, 0, 3, 0})
	// Mixed ties stepped midway, then a later tie drained by steps.
	f.Add([]byte{1, 0x17, 1, 0x10, 0, 0x10, 2, 1, 1, 0x14, 3, 0})
	// A reset amid ties, then ties again in the new epoch.
	f.Add([]byte{1, 0x25, 1, 0x21, 4, 0, 1, 0x25, 1, 0x21, 0, 0x20, 2, 0})
	// Lane against heap at one instant: a heap event at t=1 with
	// priority 2, and one with priority -1 whose follow-ups have
	// priorities 3 and -3. The order is -3 (lane), 2 (heap), 3 (lane),
	// so neither side may win a same-time tie by default.
	f.Add([]byte{1, 0x15, 41, 0x12, 3, 0, 3, 0, 3, 0, 3, 0})
	// Release/cycle: two events at t=2 each post follow-ups of
	// priority 1 then 0, so a later priority-0 entry slides in front
	// of a queued priority-1 one.
	f.Add([]byte{173, 0x23, 173, 0x23, 3, 0, 2, 2, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0})
	// Events scheduled at the current instant from outside a handler,
	// then a reset with the lane non-empty.
	f.Add([]byte{5, 0x03, 1, 0x01, 0, 0x00, 3, 0, 4, 0, 173, 0x08, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s, r := New(), &refSim{}
		var got, want []int
		var kN, rN int // events scheduled on each side
		// kAt and rAt schedule event kN (rN) on each side; when it
		// fires, it records its ID and schedules one follow-up per
		// entry of spawn, at the clock, with that priority.
		var kAt func(at float64, prio int, spawn []int)
		kAt = func(at float64, prio int, spawn []int) {
			id := kN
			kN++
			s.AtPriority(at, prio, func() {
				got = append(got, id)
				for _, p := range spawn {
					kAt(s.Now(), p, nil)
				}
			})
		}
		var rAt func(at float64, prio int, spawn []int)
		rAt = func(at float64, prio int, spawn []int) {
			id := rN
			rN++
			r.at(at, prio, func() {
				want = append(want, id)
				for _, p := range spawn {
					rAt(r.now, p, nil)
				}
			})
		}
		check := func(i int) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: kernel fired %v, reference %v", i, got, want)
			}
			if math.Float64bits(s.Now()) != math.Float64bits(r.now) {
				t.Fatalf("op %d: kernel clock %v, reference %v", i, s.Now(), r.now)
			}
			if s.Pending() != len(r.queue) {
				t.Fatalf("op %d: kernel has %d pending, reference %d", i, s.Pending(), len(r.queue))
			}
			if kN != rN {
				t.Fatalf("op %d: kernel scheduled %d events, reference %d", i, kN, rN)
			}
		}
		for i := 0; i+1 < len(ops) && kN < 256; i += 2 {
			op, arg := ops[i]%6, ops[i+1]
			at := s.Now() + float64(arg>>3)/2
			switch op {
			case 0, 1, 5:
				prio := 0
				if op != 0 {
					prio = int(arg&7) - 3
				}
				var spawn []int
				if op == 5 {
					k := int(ops[i] / 6)
					spawn = []int{k&7 - 3, (k>>3)&7 - 3}
				}
				kAt(at, prio, spawn)
				rAt(at, prio, spawn)
			case 2, 3:
				if g, w := s.Step(), r.step(); g != w {
					t.Fatalf("op %d: Step = %v, reference %v", i, g, w)
				}
			case 4:
				s.Reset()
				r.reset()
			}
			check(i)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		for r.step() {
		}
		check(len(ops))
	})
}
