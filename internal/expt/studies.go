package expt

import (
	"fmt"
	"math/rand"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/loadgen"
	"reassign/internal/metrics"
	"reassign/internal/randsrc"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// StudyScaling implements the paper's named future work — "more
// experiments with larger instances of Montage": ReASSIgN (default
// parameters, o.Episodes episodes) vs HEFT across Montage sizes on
// the 32-vCPU fleet, plan quality as the mean of PlanEvalReps
// fluctuating runs.
func StudyScaling(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	fleet, err := cloud.FleetTable1(32)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("Study: Montage scaling on 32 vCPUs (mean of %d runs)", PlanEvalReps),
		"activations", "HEFT (s)", "ReASSIgN (s)", "ReASSIgN/HEFT")

	evalPlan := func(w *dag.Workflow, plan core.Plan) (float64, error) {
		assign := plan.Map()
		var sum float64
		for rep := 0; rep < PlanEvalReps; rep++ {
			res, err := sim.Run(w, fleet, &sched.Plan{PlanName: "p", Assign: assign},
				sim.Config{Fluct: o.TrainFluct, Seed: o.Seed + 5000 + int64(rep), Hook: o.Hook})
			if err != nil {
				return 0, err
			}
			sum += res.Makespan
		}
		return sum / PlanEvalReps, nil
	}

	for _, size := range []int{25, 50, 100, 200} {
		rng := rand.New(randsrc.New(o.Seed))
		var w *dag.Workflow
		if size == 50 {
			w = trace.Montage50(rng)
		} else {
			w = trace.MontageN(rng, size)
		}
		h := &sched.HEFT{}
		if _, err := sim.Run(w, fleet, h, sim.Config{Hook: o.Hook}); err != nil {
			return nil, err
		}
		heftMk, err := evalPlan(w, core.NewPlan(h.Assign()))
		if err != nil {
			return nil, err
		}
		l, err := core.NewLearner(core.Config{
			Workflow: w, Fleet: fleet, Params: core.DefaultParams(),
			Episodes: o.Episodes,
			Sim:      sim.Config{Fluct: o.TrainFluct, Hook: o.Hook},
		}, core.WithSeed(o.Seed), core.WithSink(o.Sink))
		if err != nil {
			return nil, err
		}
		lr, err := l.Learn()
		if err != nil {
			return nil, err
		}
		rlMk, err := evalPlan(w, lr.Plan)
		if err != nil {
			return nil, err
		}
		t.AddRowF(w.Len(), heftMk, rlMk, fmt.Sprintf("%.2f", rlMk/heftMk))
	}
	return t, nil
}

// StudyOpenSystem is the open-system (multi-tenant continuous
// arrival) evaluation: a seeded three-tenant trace — Poisson, bursty
// and diurnal streams, two of them deadline-carrying — replayed
// bit-identically against every scheduling lane (learned ReASSIgN
// with a warm per-structure Q table, static HEFT, greedy immediate,
// and deadline-EDF admission). Rows compare the lanes on drain
// makespan, throughput, Jain/max-min fairness over per-tenant
// attainment, SLA hit rate, and queue-wait percentiles.
func StudyOpenSystem(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	tr, err := loadgen.Generate(loadgen.TraceConfig{
		Seed:    o.Seed,
		Horizon: 600,
		Tenants: loadgen.DefaultTenants(3, 0.02, 30),
	})
	if err != nil {
		return nil, err
	}
	rep, err := loadgen.RunLanes(tr, loadgen.LaneConfig{
		Fleet:    api.FleetSpec{Preset: "table1", VCPUs: 16},
		Slots:    2,
		Episodes: 12,
	})
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("Study: open system (%d arrivals, %d tenants, seed %d)",
			rep.Jobs, len(rep.Tenants), rep.Seed),
		"policy", "makespan (s)", "jobs/1ks", "jain", "maxmin", "sla hit", "wait p50", "wait p95")
	for _, l := range rep.Lanes {
		t.AddRowF(string(l.Policy), l.Makespan, l.Throughput, l.Jain, l.MaxMin,
			l.SLAHitRate, l.WaitP50, l.WaitP95)
	}
	return t, nil
}
