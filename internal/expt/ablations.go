package expt

import (
	"fmt"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/metrics"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
)

// ablationLearn runs one learning pipeline with modified parameters
// on the 16-vCPU fleet and returns the plan makespan.
func ablationLearn(o Options, mutate func(*core.Params), episodes int) (float64, error) {
	o = o.withDefaults()
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		return 0, err
	}
	p := core.DefaultParams()
	mutate(&p)
	if episodes <= 0 {
		episodes = o.Episodes
	}
	l, err := core.NewLearner(core.Config{
		Workflow: o.Workflow,
		Fleet:    fleet,
		Params:   p,
		Episodes: episodes,
		Sim:      sim.Config{Fluct: o.TrainFluct, Hook: o.Hook},
	}, core.WithSeed(o.Seed), core.WithSink(o.Sink))
	if err != nil {
		return 0, err
	}
	res, err := l.Learn()
	if err != nil {
		return 0, err
	}
	return EvalPlan(o, fleet, res.Plan)
}

// AblationRho sweeps the reward-smoothing factor ρ (the paper leaves
// it implicit; DESIGN.md §5).
func AblationRho(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: reward smoothing ρ (16 vCPUs)", "rho", "plan makespan (s)")
	for _, rho := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		mk, err := ablationLearn(o, func(p *core.Params) { p.Rho = rho }, 0)
		if err != nil {
			return nil, err
		}
		t.AddRowF(fmt.Sprintf("%.2f", rho), mk)
	}
	return t, nil
}

// AblationMu sweeps μ, the execution-vs-queue-time balance of the
// performance index (paper fixes μ=0.5).
func AblationMu(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: performance-index balance μ (16 vCPUs)", "mu", "plan makespan (s)")
	for _, mu := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		mk, err := ablationLearn(o, func(p *core.Params) { p.Mu = mu }, 0)
		if err != nil {
			return nil, err
		}
		t.AddRowF(fmt.Sprintf("%.2f", mu), mk)
	}
	return t, nil
}

// AblationPolicy compares the paper's ε convention, the textbook
// ε-greedy reading, and Boltzmann exploration.
func AblationPolicy(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: exploration policy (16 vCPUs)", "policy", "plan makespan (s)")
	cases := []struct {
		name   string
		mutate func(*core.Params)
	}{
		{"paper ε=0.1 (explore 90%)", func(p *core.Params) { p.Epsilon = 0.1 }},
		{"textbook ε=0.1 (explore 10%)", func(p *core.Params) {
			p.Policy = rl.EpsilonGreedy{Epsilon: 0.1, Textbook: true}
		}},
		{"boltzmann T=0.5", func(p *core.Params) { p.Policy = rl.Boltzmann{Temperature: 0.5} }},
		{"boltzmann T=2.0", func(p *core.Params) { p.Policy = rl.Boltzmann{Temperature: 2.0} }},
	}
	for _, c := range cases {
		mk, err := ablationLearn(o, c.mutate, 0)
		if err != nil {
			return nil, err
		}
		t.AddRowF(c.name, mk)
	}
	return t, nil
}

// AblationEpisodes sweeps the episode budget — the paper conjectures
// ReASSIgN improves with more episodes.
func AblationEpisodes(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: episode budget (16 vCPUs)", "episodes", "plan makespan (s)")
	for _, n := range []int{5, 10, 25, 50, 100, 200} {
		mk, err := ablationLearn(o, func(*core.Params) {}, n)
		if err != nil {
			return nil, err
		}
		t.AddRowF(n, mk)
	}
	return t, nil
}

// AblationRule compares the paper's Q-learning bootstrap against
// SARSA.
func AblationRule(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: TD rule (16 vCPUs)", "rule", "plan makespan (s)")
	for _, c := range []struct {
		name string
		rule core.UpdateRule
	}{{"Q-learning", core.QLearning}, {"SARSA", core.SARSA}, {"Double Q", core.DoubleQ}} {
		mk, err := ablationLearn(o, func(p *core.Params) { p.Rule = c.rule }, 0)
		if err != nil {
			return nil, err
		}
		t.AddRowF(c.name, mk)
	}
	return t, nil
}

// AblationDiscount compares Algorithm 2's literal γ^t discount with a
// conventional constant γ.
func AblationDiscount(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: discounting (16 vCPUs)", "discount", "plan makespan (s)")
	for _, c := range []struct {
		name   string
		mutate func(*core.Params)
	}{
		{"γ^t (paper)", func(p *core.Params) { p.GammaPowerT = true }},
		{"constant γ=1.0", func(p *core.Params) { p.GammaPowerT = false; p.Gamma = 1.0 }},
		{"constant γ=0.9", func(p *core.Params) { p.GammaPowerT = false; p.Gamma = 0.9 }},
	} {
		mk, err := ablationLearn(o, c.mutate, 0)
		if err != nil {
			return nil, err
		}
		t.AddRowF(c.name, mk)
	}
	return t, nil
}

// AblationSchedules compares the paper's constant α/ε against decayed
// schedules (explore early, exploit late; anneal the learning rate).
func AblationSchedules(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Ablation: parameter schedules (16 vCPUs)",
		"schedule", "plan makespan (s)")
	cases := []struct {
		name     string
		alphaSch rl.Schedule
		epsSch   rl.Schedule
	}{
		{"constant α=0.5, ε=0.1 (paper)", nil, nil},
		{"α exp-decay 1.0→0.1", rl.ExpDecay{Start: 1.0, Rate: 0.97, Floor: 0.1}, nil},
		{"ε linear 0.0→0.9 (explore→exploit)", nil, rl.LinearDecay{Start: 0.0, End: 0.9, Over: o.Episodes}},
		{"both decayed", rl.ExpDecay{Start: 1.0, Rate: 0.97, Floor: 0.1},
			rl.LinearDecay{Start: 0.0, End: 0.9, Over: o.Episodes}},
	}
	for _, c := range cases {
		l, err := core.NewLearner(core.Config{
			Workflow: o.Workflow, Fleet: fleet,
			Params: core.DefaultParams(), Episodes: o.Episodes,
			Sim: sim.Config{Fluct: o.TrainFluct, Hook: o.Hook},
		}, core.WithSeed(o.Seed), core.WithSink(o.Sink),
			core.WithAlphaSchedule(c.alphaSch), core.WithEpsilonSchedule(c.epsSch))
		if err != nil {
			return nil, err
		}
		res, err := l.Learn()
		if err != nil {
			return nil, err
		}
		mk, err := EvalPlan(o, fleet, res.Plan)
		if err != nil {
			return nil, err
		}
		t.AddRowF(c.name, mk)
	}
	return t, nil
}

// AblationCostWeight sweeps the cost-aware reward extension (the
// paper's future-work direction): each weight's learned plan is
// scored on both mean makespan and mean work-based cost, tracing the
// cost/performance frontier.
func AblationCostWeight(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Ablation: cost-aware reward (16 vCPUs)",
		"cost weight", "plan makespan (s)", "busy cost (USD)")
	for _, cw := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		p := core.DefaultParams()
		p.CostWeight = cw
		l, err := core.NewLearner(core.Config{
			Workflow: o.Workflow, Fleet: fleet, Params: p,
			Episodes: o.Episodes,
			Sim:      sim.Config{Fluct: o.TrainFluct, Hook: o.Hook},
		}, core.WithSeed(o.Seed), core.WithSink(o.Sink))
		if err != nil {
			return nil, err
		}
		res, err := l.Learn()
		if err != nil {
			return nil, err
		}
		assign := res.Plan.Map()
		var mk, cost float64
		for rep := 0; rep < PlanEvalReps; rep++ {
			r, err := sim.Run(o.Workflow, fleet, &sched.Plan{PlanName: "p", Assign: assign},
				sim.Config{Fluct: o.TrainFluct, Seed: o.Seed + 5000 + int64(rep), Hook: o.Hook})
			if err != nil {
				return nil, err
			}
			mk += r.Makespan
			cost += r.BusyCost
		}
		t.AddRowF(fmt.Sprintf("%.2f", cw), mk/PlanEvalReps, fmt.Sprintf("%.5f", cost/PlanEvalReps))
	}
	return t, nil
}

// AblationBootstrap compares the two readings of Algorithm 2's
// max_a' Q(s', a'): over the whole remaining table (paper shape,
// default) vs only the actions available in the successor state.
func AblationBootstrap(o Options) (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: TD bootstrap scope (16 vCPUs)", "scope", "plan makespan (s)")
	for _, c := range []struct {
		name  string
		scope core.BootstrapScope
	}{
		{"all pending × all VMs (paper shape)", core.AllPending},
		{"available actions only", core.AvailableOnly},
	} {
		mk, err := ablationLearn(o, func(p *core.Params) { p.Scope = c.scope }, 0)
		if err != nil {
			return nil, err
		}
		t.AddRowF(c.name, mk)
	}
	return t, nil
}

// AblationClustering compares scheduling the raw workflow against the
// horizontally clustered workflow (WorkflowSim's clustering engine),
// both executed with HEFT for a scheduler-independent view.
func AblationClustering(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Ablation: clustering engine (HEFT, 16 vCPUs)",
		"clustering", "tasks", "makespan (s)")

	run := func(name string, cl *sim.Clustering) error {
		w := o.Workflow
		if cl != nil {
			cw, err := cl.Apply(w)
			if err != nil {
				return err
			}
			w = cw.Workflow
		}
		res, err := sim.Run(w, fleet, &sched.HEFT{}, sim.Config{Fluct: o.TrainFluct, Seed: o.Seed, Hook: o.Hook})
		if err != nil {
			return err
		}
		t.AddRowF(name, w.Len(), res.Makespan)
		return nil
	}
	if err := run("off", nil); err != nil {
		return nil, err
	}
	if err := run("horizontal k=2", &sim.Clustering{Horizontal: true, GroupSize: 2}); err != nil {
		return nil, err
	}
	if err := run("horizontal k=4", &sim.Clustering{Horizontal: true, GroupSize: 4}); err != nil {
		return nil, err
	}
	return t, nil
}

// BaselineComparison runs every implemented scheduler on the same
// fluctuating environment — the wider comparison the paper's related
// work motivates (Min-Min, Max-Min, MCT, etc.).
func BaselineComparison(o Options, vcpus int) (*metrics.Table, error) {
	o = o.withDefaults()
	fleet, err := cloud.FleetTable1(vcpus)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(fmt.Sprintf("Baseline comparison (%d vCPUs, mean of %d runs)", vcpus, PlanEvalReps),
		"scheduler", "makespan (s)", "cost (USD)")
	mean := func(s sim.Scheduler) (mk, cost float64, err error) {
		for rep := 0; rep < PlanEvalReps; rep++ {
			res, err := sim.Run(o.Workflow, fleet, s,
				sim.Config{Fluct: o.TrainFluct, Seed: o.Seed + 5000 + int64(rep), DataTransfer: true, Hook: o.Hook})
			if err != nil {
				return 0, 0, err
			}
			mk += res.Makespan
			cost += res.Cost
		}
		return mk / PlanEvalReps, cost / PlanEvalReps, nil
	}
	scheds := []sim.Scheduler{
		&sched.FCFS{}, &sched.RoundRobin{}, &sched.Random{Seed: o.Seed},
		&sched.MCT{}, &sched.MinMin{}, &sched.MaxMin{}, &sched.DataAware{},
		&sched.CheapFirst{}, &sched.GA{Seed: o.Seed}, &sched.Adaptive{}, &sched.HEFT{},
	}
	for _, s := range scheds {
		mk, cost, err := mean(s)
		if err != nil {
			return nil, err
		}
		t.AddRowF(s.Name(), mk, fmt.Sprintf("%.4f", cost))
	}
	// ReASSIgN learned plan under the same environment.
	lr, err := learn(o, fleet, 0.5, 1.0, 0.1)
	if err != nil {
		return nil, err
	}
	mk, cost, err := mean(&sched.Plan{PlanName: "ReASSIgN", Assign: lr.Plan.Map()})
	if err != nil {
		return nil, err
	}
	t.AddRowF("ReASSIgN", mk, fmt.Sprintf("%.4f", cost))
	return t, nil
}
