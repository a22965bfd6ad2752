package des

import (
	"math"
	"testing"
)

// FuzzKernel drives the kernel with a byte-coded op sequence —
// schedule, prioritized schedule, step, reset — and checks the
// structural properties every consumer relies on:
//
//   - events execute in non-decreasing (time) order within a reset
//     epoch, never before their scheduled time, and exactly once;
//   - events pending at a Reset never fire, and freelist reuse never
//     lets a dropped event's handler run in its slot's next use.
func FuzzKernel(f *testing.F) {
	// Ops are byte pairs: op%4 is the kind (0 schedule, 1 prioritized
	// schedule, 2 step, 3 reset), the second byte the delay in quarters.
	f.Add([]byte{0, 1, 0, 3, 2, 0, 2, 0})
	f.Add([]byte{0, 10, 0, 20, 3, 0, 0, 1, 2, 0, 2, 0})
	f.Add([]byte{1, 4, 1, 4, 1, 4, 2, 1, 2, 0})
	f.Add([]byte{0, 2, 3, 0, 0, 0, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New()
		type tracked struct {
			at      float64
			epoch   int
			fired   bool
			dropped bool // pending at a Reset
		}
		var events []*tracked
		epoch := 0
		lastFire := math.Inf(-1)
		lastEpoch := 0

		schedule := func(at float64, prio int) {
			ev := &tracked{at: at, epoch: epoch}
			fn := func() {
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
				s.At(at, fn)
			} else {
				s.AtPriority(at, prio, fn)
			}
			events = append(events, ev)
		}

		for i := 0; i+1 < len(ops) && len(events) < 256; i += 2 {
			op, arg := ops[i]%4, float64(ops[i+1])
			switch op {
			case 0:
				schedule(s.Now()+arg/4, 0)
			case 1:
				schedule(s.Now()+arg/4, int(ops[i+1]%5)-2)
			case 2:
				s.Step()
			case 3:
				for _, ev := range events {
					if !ev.fired {
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
			case ev.dropped && ev.fired:
				t.Fatalf("event %d dropped by Reset but fired", i)
			case !ev.dropped && !ev.fired:
				t.Fatalf("event %d (t=%v) never fired", i, ev.at)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("%d events pending after drain", s.Pending())
		}
	})
}
