package exec

import (
	"context"
	"testing"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/dag"
)

// TestSimRunnerThrottlesMicro: under a model that always throttles
// micro instances 3×, a plan running everything on a micro VM takes
// exactly three times its nominal makespan.
func TestSimRunnerThrottlesMicro(t *testing.T) {
	w := dag.New("micro")
	w.MustAdd("a", "x", 20)
	w.MustAdd("b", "x", 20)
	fleet, err := cloud.NewFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	throttle := cloud.FluctuationModel{MicroThrottleProb: 1, ThrottleFactor: 3}
	makespan := func(r SimRunner) float64 {
		m, err := New(w, fleet, allOn(w, 0), &InProc{Runner: r})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	nominal, throttled := makespan(SimRunner{}), makespan(SimRunner{Fluct: &throttle, Seed: 1})
	if want := 40 / cloud.T2Micro.Speed; nominal != want {
		t.Fatalf("nominal makespan = %v, want %v", nominal, want)
	}
	if throttled != 3*nominal {
		t.Fatalf("throttled makespan = %v, want 3 × %v", throttled, nominal)
	}
}

func TestSleepRunnerHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := (SleepRunner{Scale: 1}).Run(ctx, TaskSpec{Duration: 3600}); err == nil {
		t.Fatal("cancelled sleep returned nil")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancelled sleep blocked")
	}
	if _, err := (SleepRunner{}).Run(context.Background(), TaskSpec{}); err != nil {
		t.Fatalf("zero-duration run: %v", err)
	}
}
