package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

func TestPerfIndex(t *testing.T) {
	// μ=0.5 averages exec and queue time.
	if got := PerfIndex(10, 20, 0.5); got != 15 {
		t.Fatalf("PerfIndex = %v, want 15", got)
	}
	// μ=1 ignores queue time; μ=0 ignores exec time.
	if got := PerfIndex(10, 20, 1); got != 10 {
		t.Fatalf("PerfIndex(μ=1) = %v", got)
	}
	if got := PerfIndex(10, 20, 0); got != 20 {
		t.Fatalf("PerfIndex(μ=0) = %v", got)
	}
}

func TestCrispReward(t *testing.T) {
	// VM index worse (larger) than global + stdv ⇒ punishment.
	if got := CrispReward(20, 10, 5); got != -1 {
		t.Fatalf("CrispReward = %v, want -1", got)
	}
	// Within one stdv ⇒ reward.
	if got := CrispReward(14, 10, 5); got != 1 {
		t.Fatalf("CrispReward = %v, want 1", got)
	}
	// Exactly at the boundary is not strictly greater ⇒ reward.
	if got := CrispReward(15, 10, 5); got != 1 {
		t.Fatalf("CrispReward(boundary) = %v, want 1", got)
	}
}

func TestSmoothReward(t *testing.T) {
	// ρ=0 keeps the history; ρ=1 takes the new value.
	if got := SmoothReward(0.5, 1, 0); got != 0.5 {
		t.Fatalf("ρ=0: %v", got)
	}
	if got := SmoothReward(0.5, 1, 1); got != 1 {
		t.Fatalf("ρ=1: %v", got)
	}
	if got := SmoothReward(0, 1, 0.5); got != 0.5 {
		t.Fatalf("ρ=0.5: %v", got)
	}
}

// Property: the smoothed reward stays within [-1, 1] for any sequence
// of crisp rewards.
func TestPropertySmoothRewardBounded(t *testing.T) {
	f := func(seed int64, n uint8, rawRho uint8) bool {
		rho := float64(rawRho%101) / 100
		rng := rand.New(rand.NewSource(seed))
		r := 0.0
		for i := 0; i < int(n); i++ {
			crisp := 1.0
			if rng.Intn(2) == 0 {
				crisp = -1
			}
			r = SmoothReward(r, crisp, rho)
			if r < -1-1e-12 || r > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Alpha: -0.1, Gamma: 1, Epsilon: 0.1, Mu: 0.5, Rho: 0.5},
		{Alpha: 0.5, Gamma: 1.5, Epsilon: 0.1, Mu: 0.5, Rho: 0.5},
		{Alpha: 0.5, Gamma: 1, Epsilon: 2, Mu: 0.5, Rho: 0.5},
		{Alpha: 0.5, Gamma: 1, Epsilon: 0.1, Mu: -1, Rho: 0.5},
		{Alpha: 0.5, Gamma: 1, Epsilon: 0.1, Mu: 0.5, Rho: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated: %+v", i, p)
		}
	}
}

func TestNewSchedulerErrors(t *testing.T) {
	if _, err := NewScheduler(Params{Alpha: -1}, rl.NewTable(1, 1, nil, 1), nil); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := NewScheduler(DefaultParams(), nil, nil); err == nil {
		t.Fatal("nil table accepted")
	}
}

func montage50(t testing.TB, seed int64) *dag.Workflow {
	rng := rand.New(rand.NewSource(seed))
	return trace.Montage50(rng)
}

func fleet(t testing.TB, vcpus int) *cloud.Fleet {
	f, err := cloud.FleetTable1(vcpus)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSchedulerCompletesEpisode(t *testing.T) {
	w := montage50(t, 1)
	tab := rl.NewTable(w.Len(), len(fleet(t, 16).VMs), rand.New(rand.NewSource(2)), 1)
	agent, err := NewScheduler(DefaultParams(), tab, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(w, fleet(t, 16), agent, sim.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != sim.FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	if len(res.Plan) != 50 {
		t.Fatalf("plan covers %d", len(res.Plan))
	}
	// Learning happened: table has entries and episode reward moved.
	if tab.Len() == 0 {
		t.Fatal("no Q entries materialised")
	}
	if agent.EpisodeReward() == 0 {
		t.Fatal("no rewards accumulated")
	}
}

func TestLearnerImprovesOverRandomInit(t *testing.T) {
	// The learning simulator runs with the fluctuation model: the t2
	// family has equal nominal speed, so the only exploitable signal
	// is the micro instances' throttling — which is not visible in
	// estimates, only in the measured times ReASSIgN learns from.
	// After learning, the greedy plan should beat the average random
	// plan clearly.
	// ReASSIgN is a marginal improvement by the paper's own account,
	// so assert the aggregate over several workflow instances, each
	// evaluated over several fluctuation draws (single draws swing by
	// ±20% and single instances by ±10%).
	fl := fleet(t, 16)
	fluct := cloud.DefaultFluctuation()
	var planSum, randSum float64
	for _, wseed := range []int64{1, 2, 3, 9} {
		w := montage50(t, wseed)
		l := newLearner(t, Config{Workflow: w, Fleet: fl, Episodes: 100, Sim: sim.Config{Fluct: &fluct}}, WithSeed(wseed))
		res, err := l.Learn()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Episodes) != 100 {
			t.Fatalf("episodes = %d", len(res.Episodes))
		}
		if res.PlanMakespan <= 0 || res.Plan.Len() != 50 {
			t.Fatalf("plan makespan %v, plan size %d", res.PlanMakespan, res.Plan.Len())
		}
		if res.LearningTime <= 0 {
			t.Fatal("learning time not measured")
		}
		// No strict critical-path check here: the fluctuating
		// simulator's log-normal noise can shorten tasks below their
		// nominal runtimes (noiseless bounds are asserted elsewhere).
		for i := int64(0); i < 8; i++ {
			pres, err := sim.Run(w, fl, &sched.Plan{PlanName: "learned", Assign: res.Plan.Map()},
				sim.Config{Fluct: &fluct, Seed: 100 + i})
			if err != nil {
				t.Fatal(err)
			}
			planSum += pres.Makespan
			rres, err := sim.Run(w, fl, &sched.Random{Seed: i}, sim.Config{Fluct: &fluct, Seed: 100 + i})
			if err != nil {
				t.Fatal(err)
			}
			randSum += rres.Makespan
		}
	}
	if planSum >= randSum {
		t.Fatalf("learned plans' mean %v not better than mean random %v", planSum, randSum)
	}
}

func TestLearnerDeterministic(t *testing.T) {
	w := montage50(t, 6)
	fl := fleet(t, 16)
	run := func() *Result {
		l := newLearner(t, Config{Workflow: w, Fleet: fl, Episodes: 10}, WithSeed(11))
		res, err := l.Learn()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.PlanMakespan != b.PlanMakespan {
		t.Fatalf("same seed, different plan makespans: %v vs %v", a.PlanMakespan, b.PlanMakespan)
	}
	for _, e := range a.Plan.Entries() {
		if vm, _ := b.Plan.VM(e.Activation); vm != e.VM {
			t.Fatalf("plans diverge at %s: %d vs %d", e.Activation, e.VM, vm)
		}
	}
	for i := range a.Episodes {
		if a.Episodes[i].Makespan != b.Episodes[i].Makespan {
			t.Fatalf("episode %d makespans diverge", i)
		}
	}
}

func TestLearnerContinuesFromTable(t *testing.T) {
	w := montage50(t, 7)
	fl := fleet(t, 16)
	l1 := newLearner(t, Config{Workflow: w, Fleet: fl, Episodes: 5}, WithSeed(13))
	r1, err := l1.Learn()
	if err != nil {
		t.Fatal(err)
	}
	entries := r1.Table.Len()
	l2 := newLearner(t, Config{Workflow: w, Fleet: fl, Episodes: 5}, WithSeed(17), WithTable(r1.Table))
	r2, err := l2.Learn()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Table != r1.Table {
		t.Fatal("second learner did not reuse the table")
	}
	if r2.Table.Len() < entries {
		t.Fatal("table shrank")
	}
}

func TestLearnerErrors(t *testing.T) {
	if _, err := NewLearner(Config{}); err == nil {
		t.Fatal("nil workflow accepted")
	}
	w := montage50(t, 8)
	if _, err := NewLearner(Config{Workflow: w, Fleet: fleet(t, 16), Params: Params{Alpha: 9}}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// newLearner is NewLearner for inputs the test knows are valid.
func newLearner(t testing.TB, cfg Config, opts ...Option) *Learner {
	t.Helper()
	l, err := NewLearner(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPlanExtractorFrozen(t *testing.T) {
	w := montage50(t, 9)
	tab := rl.NewTable(w.Len(), len(fleet(t, 16).VMs), rand.New(rand.NewSource(1)), 1)
	ext, err := NewPlanExtractor(DefaultParams(), tab)
	if err != nil {
		t.Fatal(err)
	}
	before := tab.Len()
	_ = before
	res, err := sim.Run(w, fleet(t, 16), ext, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != sim.FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	// Snapshot values must be unchanged by a frozen run for keys that
	// existed before — easiest check: run twice and compare plans.
	ext2, _ := NewPlanExtractor(DefaultParams(), tab)
	res2, err := sim.Run(w, fleet(t, 16), ext2, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for id, vm := range res.Plan {
		if res2.Plan[id] != vm {
			t.Fatalf("frozen extraction not stable at %s", id)
		}
	}
}

func TestSARSAVariantRuns(t *testing.T) {
	w := montage50(t, 10)
	p := DefaultParams()
	p.Rule = SARSA
	l := newLearner(t, Config{Workflow: w, Fleet: fleet(t, 16), Params: p, Episodes: 5}, WithSeed(3))
	res, err := l.Learn()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Len() != 50 {
		t.Fatalf("SARSA plan covers %d", res.Plan.Len())
	}
}

func TestConstantGammaVariantRuns(t *testing.T) {
	w := montage50(t, 11)
	p := DefaultParams()
	p.GammaPowerT = false
	p.Gamma = 0.9
	l := newLearner(t, Config{Workflow: w, Fleet: fleet(t, 16), Params: p, Episodes: 5}, WithSeed(3))
	if _, err := l.Learn(); err != nil {
		t.Fatal(err)
	}
}

func TestBoltzmannPolicyVariantRuns(t *testing.T) {
	w := montage50(t, 12)
	p := DefaultParams()
	p.Policy = rl.Boltzmann{Temperature: 0.5}
	l := newLearner(t, Config{Workflow: w, Fleet: fleet(t, 16), Params: p, Episodes: 5}, WithSeed(3))
	if _, err := l.Learn(); err != nil {
		t.Fatal(err)
	}
}

func TestPerfStdDevBehaviour(t *testing.T) {
	// A one-activation workflow on a one-VM fleet, where the reward's
	// spread of per-VM indices is over a single VM, runs to
	// completion under the learning scheduler.
	w := dag.New("w")
	w.MustAdd("a", "x", 5)
	fl := cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	tab := rl.NewTable(1, 1, rand.New(rand.NewSource(1)), 1)
	agent, _ := NewScheduler(DefaultParams(), tab, rand.New(rand.NewSource(2)))
	if _, err := sim.Run(w, fl, agent, sim.Config{}); err != nil {
		t.Fatal(err)
	}
}

// Property: learning on any family produces a complete plan whose
// makespan respects the critical-path lower bound.
func TestPropertyLearnerProducesValidPlans(t *testing.T) {
	fams := trace.Families()
	f := func(seed int64, famIdx uint8) bool {
		fam := fams[int(famIdx)%len(fams)]
		rng := rand.New(rand.NewSource(seed))
		w := trace.Named(fam)(rng, 30)
		fl, err := cloud.FleetTable1(16)
		if err != nil {
			return false
		}
		l, err := NewLearner(Config{Workflow: w, Fleet: fl, Episodes: 3}, WithSeed(seed))
		if err != nil {
			return false
		}
		res, err := l.Learn()
		if err != nil {
			return false
		}
		if res.Plan.Len() != w.Len() {
			return false
		}
		_, cp, err := w.CriticalPath()
		if err != nil {
			return false
		}
		return res.PlanMakespan >= cp-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEpisodeMontage50(b *testing.B) {
	w := montage50(b, 1)
	fl, _ := cloud.FleetTable1(16)
	tab := rl.NewTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(1)), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent, err := NewScheduler(DefaultParams(), tab, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(w, fl, agent, sim.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLearn100Episodes(b *testing.B) {
	w := montage50(b, 1)
	fl, _ := cloud.FleetTable1(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := newLearner(b, Config{Workflow: w, Fleet: fl, Episodes: 100}, WithSeed(int64(i)))
		if _, err := l.Learn(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCostWeightValidated(t *testing.T) {
	p := DefaultParams()
	p.CostWeight = 1.5
	if err := p.Validate(); err == nil {
		t.Fatal("CostWeight > 1 accepted")
	}
}

// TestCostAwareRewardShiftsWorkToCheapSlots checks the future-work
// extension: with CostWeight=1 the learner prefers the cheap micro
// slots, yielding a lower work-based cost (and typically a worse
// makespan) than the pure-performance reward.
func TestCostAwareRewardShiftsWorkToCheapSlots(t *testing.T) {
	w := montage50(t, 3)
	fl := fleet(t, 16)
	fluct := cloud.DefaultFluctuation()
	runWeight := func(cw float64) (busyCost, makespan float64) {
		p := DefaultParams()
		p.CostWeight = cw
		l := newLearner(t, Config{Workflow: w, Fleet: fl, Params: p, Episodes: 100, Sim: sim.Config{Fluct: &fluct}}, WithSeed(3))
		res, err := l.Learn()
		if err != nil {
			t.Fatal(err)
		}
		// Score the plan over several draws.
		var cost, mk float64
		for i := int64(0); i < 5; i++ {
			r, err := sim.Run(w, fl, &sched.Plan{PlanName: "p", Assign: res.Plan.Map()},
				sim.Config{Fluct: &fluct, Seed: 200 + i})
			if err != nil {
				t.Fatal(err)
			}
			cost += r.BusyCost
			mk += r.Makespan
		}
		return cost / 5, mk / 5
	}
	perfCost, _ := runWeight(0)
	cheapCost, _ := runWeight(1)
	if cheapCost >= perfCost {
		t.Fatalf("cost-aware plan busy-cost %v not below pure-performance %v", cheapCost, perfCost)
	}
}

func TestBusyCostAccounting(t *testing.T) {
	// One 3600s task on a micro VM costs exactly its hourly price in
	// busy cost.
	w := dag.New("c")
	w.MustAdd("a", "x", 3600)
	fl := cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	tab := rl.NewTable(1, 1, rand.New(rand.NewSource(1)), 1)
	agent, _ := NewScheduler(DefaultParams(), tab, rand.New(rand.NewSource(1)))
	res, err := sim.Run(w, fl, agent, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BusyCost-cloud.T2Micro.PricePerHour) > 1e-9 {
		t.Fatalf("BusyCost = %v, want %v", res.BusyCost, cloud.T2Micro.PricePerHour)
	}
}

func TestDoubleQVariantRuns(t *testing.T) {
	w := montage50(t, 13)
	p := DefaultParams()
	p.Rule = DoubleQ
	l := newLearner(t, Config{Workflow: w, Fleet: fleet(t, 16), Params: p, Episodes: 10}, WithSeed(13))
	res, err := l.Learn()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Len() != 50 {
		t.Fatalf("DoubleQ plan covers %d", res.Plan.Len())
	}
	if l.tableB == nil || l.tableB.Len() == 0 {
		t.Fatal("second table never materialised")
	}
	// Determinism holds for DoubleQ too.
	l2 := newLearner(t, Config{Workflow: w, Fleet: fleet(t, 16), Params: p, Episodes: 10}, WithSeed(13))
	res2, err := l2.Learn()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Plan.Entries() {
		if vm, _ := res2.Plan.VM(e.Activation); vm != e.VM {
			t.Fatalf("DoubleQ not deterministic at %s", e.Activation)
		}
	}
}

func TestDoubleQDampensInflation(t *testing.T) {
	// With γ=1 and the AllPending bootstrap, plain Q-learning inflates
	// Q values well above the reward bound; Double Q's
	// cross-evaluation should keep the mean lower.
	w := montage50(t, 14)
	fl := fleet(t, 16)
	meanQ := func(rule UpdateRule) float64 {
		p := DefaultParams()
		p.Rule = rule
		l := newLearner(t, Config{Workflow: w, Fleet: fl, Params: p, Episodes: 30}, WithSeed(14))
		res, err := l.Learn()
		if err != nil {
			t.Fatal(err)
		}
		return res.Table.Mean()
	}
	single := meanQ(QLearning)
	double := meanQ(DoubleQ)
	if double >= single {
		t.Fatalf("DoubleQ mean %v not below Q-learning mean %v", double, single)
	}
}

// BenchmarkTDHotPath measures one full learning episode — Pick,
// bootstrap, and TDUpdate on every completion — on the table the
// Learner builds. The sub-benchmark keeps the name it had when a map
// backed table ran beside it.
func BenchmarkTDHotPath(b *testing.B) {
	w := montage50(b, 6)
	fl := fleet(b, 16)
	fluct := cloud.DefaultFluctuation()
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab := rl.NewTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(int64(i))), 1.0)
			agent, err := NewScheduler(DefaultParams(), tab, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(w, fl, agent, sim.Config{Seed: int64(i), Fluct: &fluct}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
