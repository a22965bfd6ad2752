package exec

import (
	"context"
	"testing"
)

// TestInProcQueueAllocFree: InProc's queue holds its events unboxed in
// a des.Heap, so once the queue has reached its working size a
// Send/Next cycle — dispatch one attempt, then take events until a
// result comes back, renewing heartbeats on the way — allocates
// nothing.
func TestInProcQueueAllocFree(t *testing.T) {
	p := &InProc{Workers: 2, Runner: SimRunner{}, HeartbeatEvery: 1}
	if _, err := p.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	spec := TaskSpec{TaskID: "a", VMType: "t2.large"}
	n := 0
	cycle := func() {
		n++
		spec.Index, spec.Duration = n, float64(1+n%7)/2
		if err := p.Send(n%2, spec); err != nil {
			t.Fatal(err)
		}
		for {
			ev, err := p.Next(context.Background(), Forever)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind == EvResult {
				return
			}
		}
	}
	// Keep four attempts in flight, so results, heartbeats and sends
	// interleave in the queue.
	for range 4 {
		spec.Index, spec.Duration = -1, 10
		if err := p.Send(0, spec); err != nil {
			t.Fatal(err)
		}
	}
	for range 100 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a Send/Next cycle allocates %.1f times, want 0", allocs)
	}
}

// TestInProcSendUnknownWorker: Open hands out workers 0..Workers-1, and
// a Send to any other ID is an error, not a panic.
func TestInProcSendUnknownWorker(t *testing.T) {
	p := &InProc{Workers: 3, Runner: SimRunner{}}
	if err := p.Send(0, TaskSpec{TaskID: "a"}); err == nil {
		t.Fatal("Send before Open succeeded")
	}
	if _, err := p.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 3, 99} {
		if err := p.Send(w, TaskSpec{TaskID: "a"}); err == nil {
			t.Errorf("Send to worker %d of 3 succeeded", w)
		}
	}
	if err := p.Send(2, TaskSpec{TaskID: "a", Duration: 1}); err != nil {
		t.Fatalf("Send to worker 2 of 3: %v", err)
	}
}
