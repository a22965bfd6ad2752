package des

import (
	"math"
	"testing"
)

// FuzzKernel drives the kernel with a byte-coded op sequence —
// schedule, prioritized schedule, cancel, step, reset — and checks the structural properties every
// consumer relies on:
//
//   - events execute in non-decreasing (time) order within a reset
//     epoch, never before their scheduled time;
//   - a Cancel that returned true really suppresses the handler;
//   - refs from before a Reset are stale: Cancel is a no-op returning
//     false, and freelist reuse (generation counters) never lets a
//     stale ref kill a recycled event.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 2, 0, 3, 0})
	f.Add([]byte{0, 10, 0, 20, 4, 0, 0, 1, 3, 0, 3, 0})
	f.Add([]byte{1, 4, 1, 4, 1, 4, 2, 1, 3, 0})
	f.Add([]byte{0, 2, 4, 0, 2, 0, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New()
		type tracked struct {
			ref      EventRef
			at       float64
			epoch    int
			fired    bool
			canceled bool // Cancel() returned true
			dropped  bool // pending at a Reset
		}
		var events []*tracked
		epoch := 0
		lastFire := math.Inf(-1)
		lastEpoch := 0

		schedule := func(at float64, prio int) {
			ev := &tracked{at: at, epoch: epoch}
			fn := func() {
				if ev.canceled {
					t.Fatalf("canceled event fired at %v", s.Now())
				}
				if ev.dropped {
					t.Fatalf("event dropped by Reset fired at %v", s.Now())
				}
				if ev.fired {
					t.Fatalf("event fired twice at %v", s.Now())
				}
				ev.fired = true
				if s.Now() != ev.at {
					t.Fatalf("event scheduled for %v fired at %v", ev.at, s.Now())
				}
				if ev.epoch == lastEpoch && s.Now() < lastFire {
					t.Fatalf("clock went backwards: %v after %v", s.Now(), lastFire)
				}
				lastFire, lastEpoch = s.Now(), ev.epoch
			}
			if prio == 0 {
				ev.ref = s.At(at, fn)
			} else {
				ev.ref = s.AtPriority(at, prio, fn)
			}
			events = append(events, ev)
		}

		for i := 0; i+1 < len(ops) && len(events) < 256; i += 2 {
			op, arg := ops[i]%5, float64(ops[i+1])
			switch op {
			case 0:
				schedule(s.Now()+arg/4, 0)
			case 1:
				schedule(s.Now()+arg/4, int(ops[i+1]%5)-2)
			case 2:
				if len(events) == 0 {
					continue
				}
				ev := events[int(arg)%len(events)]
				got := ev.ref.Cancel()
				switch {
				case got && (ev.fired || ev.canceled || ev.dropped):
					t.Fatalf("Cancel returned true for a fired/canceled/stale event (generation reuse?)")
				case got:
					ev.canceled = true
				}
			case 3:
				s.Step()
			case 4:
				for _, ev := range events {
					if !ev.fired && !ev.canceled {
						ev.dropped = true
					}
				}
				s.Reset()
				epoch++
				lastFire = math.Inf(-1)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatalf("drain: %v", err)
		}

		for i, ev := range events {
			switch {
			case ev.canceled && ev.fired:
				t.Fatalf("event %d both canceled and fired", i)
			case ev.dropped && ev.fired:
				t.Fatalf("event %d dropped by Reset but fired", i)
			case !ev.canceled && !ev.dropped && !ev.fired:
				t.Fatalf("event %d (t=%v) never fired and was never canceled", i, ev.at)
			}
			// Post-drain, every ref is dead: Cancel must refuse.
			if ev.ref.Cancel() {
				t.Fatalf("event %d: Cancel succeeded after the queue drained", i)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("%d events pending after drain", s.Pending())
		}
	})
}
