package estimate_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/estimate"
	"reassign/internal/provenance"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

func microVM() *cloud.VM { return &cloud.VM{ID: 0, Type: cloud.T2Micro} }
func bigVM() *cloud.VM   { return &cloud.VM{ID: 8, Type: cloud.T22XLarge} }
func act(name string, rt float64) *dag.Activation {
	return &dag.Activation{ID: "x", Activity: name, Runtime: rt}
}

func TestPredictFallbackChain(t *testing.T) {
	e := estimate.New(cloud.Types())
	a := act("mAdd", 60)

	// No data: nominal runtime / speed.
	if got := e.Predict(a, microVM()); got != 60 {
		t.Fatalf("cold predict = %v, want 60", got)
	}

	// Activity-level data only (observed on the big type): scaled by
	// relative speed for the micro type (same t2 nominal speed → same
	// value).
	e.Observe("mAdd", "t2.2xlarge", 80)
	if got := e.Predict(a, microVM()); got != 80 {
		t.Fatalf("activity-fallback predict = %v, want 80", got)
	}

	// Cell-level data wins.
	e.Observe("mAdd", "t2.micro", 200)
	e.Observe("mAdd", "t2.micro", 100)
	if got := e.Predict(a, microVM()); got != 150 {
		t.Fatalf("cell predict = %v, want 150", got)
	}
	if got := e.Predict(a, bigVM()); got != 80 {
		t.Fatalf("big predict = %v, want 80", got)
	}
}

func TestObserveIgnoresNegative(t *testing.T) {
	e := estimate.New(cloud.Types())
	e.Observe("x", "t2.micro", -5)
	if e.Samples("x", "t2.micro") != 0 {
		t.Fatal("negative observation accepted")
	}
}

func TestSamples(t *testing.T) {
	e := estimate.New(cloud.Types())
	if e.Samples("a", "t2.micro") != 0 {
		t.Fatal("fresh estimator has samples")
	}
	e.Observe("a", "t2.micro", 1)
	e.Observe("a", "t2.micro", 2)
	if e.Samples("a", "t2.micro") != 2 {
		t.Fatalf("Samples = %d", e.Samples("a", "t2.micro"))
	}
}

func TestObserveStore(t *testing.T) {
	s := provenance.NewStore()
	s.Add(provenance.Execution{RunID: "r1", TaskID: "t", Activity: "mAdd",
		VMID: 0, VMType: "t2.micro", StartAt: 0, FinishAt: 10, Success: true})
	s.Add(provenance.Execution{RunID: "r1", TaskID: "t2", Activity: "mAdd",
		VMID: 0, VMType: "t2.micro", StartAt: 0, FinishAt: 20, Success: false}) // ignored
	s.Add(provenance.Execution{RunID: "r2", TaskID: "t3", Activity: "mAdd",
		VMID: 0, VMType: "t2.micro", StartAt: 0, FinishAt: 30, Success: true})

	e := estimate.New(cloud.Types())
	if n := e.ObserveStore(s, "r1"); n != 1 {
		t.Fatalf("ObserveStore(r1) = %d", n)
	}
	if got := e.Predict(act("mAdd", 99), microVM()); got != 10 {
		t.Fatalf("predict = %v, want 10", got)
	}
	e2 := estimate.New(cloud.Types())
	if n := e2.ObserveStore(s, ""); n != 2 {
		t.Fatalf("ObserveStore(all) = %d", n)
	}
	if got := e2.Predict(act("mAdd", 99), microVM()); got != 20 {
		t.Fatalf("predict = %v, want 20", got)
	}
}

func TestObserveResult(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := trace.Montage(rng, 4, 2)
	fleet, _ := cloud.FleetTable1(16)
	res, err := sim.Run(w, fleet, &sched.FCFS{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := estimate.New(cloud.Types())
	if n := e.ObserveResult(res); n != w.Len() {
		t.Fatalf("ObserveResult = %d, want %d", n, w.Len())
	}
	// Predictions for observed activities are positive and finite.
	for _, a := range w.Activations() {
		p := e.Predict(a, fleet.VMs[0])
		if p <= 0 || math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("predict(%s) = %v", a.Activity, p)
		}
	}
}

func TestSlowdownFactor(t *testing.T) {
	e := estimate.New(cloud.Types())
	if got := e.SlowdownFactorMin("t2.micro", 1); got != 1 {
		t.Fatalf("cold slowdown = %v", got)
	}
	// micro twice as slow as 2xlarge for the same activity.
	e.Observe("mProjectPP", "t2.micro", 20)
	e.Observe("mProjectPP", "t2.2xlarge", 10)
	if got := e.SlowdownFactorMin("t2.micro", 1); math.Abs(got-2) > 1e-9 {
		t.Fatalf("micro slowdown = %v, want 2", got)
	}
	if got := e.SlowdownFactorMin("t2.2xlarge", 1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("2xlarge slowdown = %v, want 1", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	e := estimate.New(cloud.Types())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				e.Observe("x", "t2.micro", 1)
				_ = e.Predict(act("x", 1), microVM())
			}
		}()
	}
	wg.Wait()
	if e.Samples("x", "t2.micro") != 1600 {
		t.Fatalf("Samples = %d", e.Samples("x", "t2.micro"))
	}
}

// TestCalibratedHEFTAvoidsThrottledVMs is the headline behaviour: a
// HEFT whose costs come from fluctuation-tainted history places less
// work on micro instances than blind HEFT, and achieves a better mean
// makespan in the fluctuating environment.
func TestCalibratedHEFTAvoidsThrottledVMs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := trace.Montage50(rng)
	fleet, _ := cloud.FleetTable1(16)
	fluct := cloud.DefaultFluctuation()

	// History: several fluctuating runs with randomised placement, so
	// task identity is not confounded with VM type (an FCFS history
	// always maps the same task to the same VM).
	e := estimate.New(cloud.Types())
	for i := int64(0); i < 10; i++ {
		res, err := sim.Run(w, fleet, &sched.Random{Seed: i}, sim.Config{Fluct: &fluct, Seed: i})
		if err != nil {
			t.Fatal(err)
		}
		e.ObserveResult(res)
	}
	if f := e.SlowdownFactorMin("t2.micro", 1); f <= 1.05 {
		t.Fatalf("history shows no micro slowdown: %v", f)
	}

	blind := &sched.HEFT{}
	calibrated := &sched.HEFT{Costs: e.CostFunc()}
	meanOf := func(s sim.Scheduler) float64 {
		var sum float64
		for i := int64(50); i < 58; i++ {
			res, err := sim.Run(w, fleet, s, sim.Config{Fluct: &fluct, Seed: i})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Makespan
		}
		return sum / 8
	}
	blindMk := meanOf(blind)
	calMk := meanOf(calibrated)
	if calMk >= blindMk {
		t.Fatalf("calibrated HEFT %v not better than blind %v", calMk, blindMk)
	}

	microShare := func(assign map[string]int) float64 {
		n := 0
		for _, vm := range assign {
			if fleet.VMs[vm].Type.VCPUs == 1 {
				n++
			}
		}
		return float64(n) / float64(len(assign))
	}
	if microShare(calibrated.Assign()) >= microShare(blind.Assign()) {
		t.Fatalf("calibrated HEFT micro share %.2f not below blind %.2f",
			microShare(calibrated.Assign()), microShare(blind.Assign()))
	}
}

// Property: predictions are always positive and finite for positive
// nominal runtimes, regardless of observation history.
func TestPropertyPredictFinite(t *testing.T) {
	f := func(seed int64, obs []uint16, rtRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		e := estimate.New(cloud.Types())
		types := cloud.Types()
		for _, o := range obs {
			ty := types[rng.Intn(len(types))]
			e.Observe("act", ty.Name, float64(o)/10)
		}
		rt := float64(rtRaw)/100 + 0.01
		for _, ty := range types {
			p := e.Predict(act("act", rt), &cloud.VM{ID: 0, Type: ty})
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowdownFactorMin(t *testing.T) {
	e := estimate.New(cloud.Types())
	// One noisy sample on micro: ignored at minSamples=2.
	e.Observe("act", "t2.micro", 100)
	e.Observe("act", "t2.2xlarge", 10)
	if got := e.SlowdownFactorMin("t2.micro", 2); got != 1 {
		t.Fatalf("under-sampled slowdown = %v, want 1", got)
	}
	// With enough samples the ratio appears.
	e.Observe("act", "t2.micro", 100)
	e.Observe("act", "t2.2xlarge", 10)
	if got := e.SlowdownFactorMin("t2.micro", 2); math.Abs(got-10) > 1e-9 {
		t.Fatalf("slowdown = %v, want 10", got)
	}
}
