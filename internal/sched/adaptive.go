package sched

import (
	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/estimate"
	"reassign/internal/sim"
)

// Adaptive is the scheduler the paper's introduction wishes for
// ("the ideal would be that the scheduler would be adaptive to the
// environment instead of modelling cloud characteristics"): it starts
// from a blind HEFT plan, learns per-(activity, VM type) runtimes
// from every completion, and re-plans the not-yet-started remainder
// with provenance-calibrated HEFT whenever the observed slowdown of
// some VM type exceeds Threshold.
//
// It is a model-free adaptive baseline to contrast with ReASSIgN:
// both learn from measured times; Adaptive funnels them through an
// explicit runtime model and a re-run of a classical planner, while
// ReASSIgN folds them into Q values directly.
type Adaptive struct {
	// Threshold is the observed-slowdown ratio that triggers a
	// re-plan (default 1.2).
	Threshold float64
	// MinObservations gates re-planning until the estimator has seen
	// this many completions (default 10).
	MinObservations int

	// Replans counts how many times the plan was recomputed.
	Replans int

	w       *dag.Workflow
	fleet   *cloud.Fleet
	env     *sim.Env
	est     *estimate.Estimator
	plan    map[string]int
	started map[string]bool
	done    int
	cooldct int
	// Per-VM-type drift accounting: Σ observed/estimated per type.
	ratioSum map[string]float64
	ratioN   map[string]int
	slots    slots
}

var _ sim.Scheduler = (*Adaptive)(nil)
var _ sim.CompletionObserver = (*Adaptive)(nil)

// Name implements sim.Scheduler.
func (a *Adaptive) Name() string { return "Adaptive" }

// Prepare implements sim.Scheduler: blind HEFT first.
func (a *Adaptive) Prepare(w *dag.Workflow, fleet *cloud.Fleet, env *sim.Env) error {
	a.w, a.fleet, a.env = w, fleet, env
	a.est = estimate.New(cloud.Types())
	a.started = make(map[string]bool, w.Len())
	a.done = 0
	a.Replans = 0
	a.cooldct = 0
	a.ratioSum = make(map[string]float64)
	a.ratioN = make(map[string]int)
	h := &HEFT{}
	if err := h.Prepare(w, fleet, env); err != nil {
		return err
	}
	a.plan = h.Assign()
	return nil
}

// Pick implements sim.Scheduler by replaying the current plan and
// remembering what has started (those placements are immutable).
func (a *Adaptive) Pick(ctx *sim.Context) []sim.Assignment {
	a.slots.fill(ctx)
	var out []sim.Assignment
	for _, t := range ctx.Ready {
		v := a.slots.open(a.plan[t.Act.ID])
		if v == nil {
			continue
		}
		a.slots.take(v)
		a.started[t.Act.ID] = true
		out = append(out, sim.Assignment{Task: t, VM: v})
	}
	a.slots.reset(ctx)
	return out
}

// OnTaskComplete implements sim.CompletionObserver: fold the measured
// time into the runtime model and re-plan when a VM type has drifted.
// Drift is measured per completed task against its *own* nominal
// estimate (observed/estimated), so per-task runtime variance never
// masquerades as type-level drift.
func (a *Adaptive) OnTaskComplete(t *sim.Task, env *sim.Env) {
	a.est.Observe(t.Act.Activity, t.VM.Type.Name, t.ExecTime())
	if nominal := env.EstimateExec(t.Act, t.VM); nominal > 0 {
		a.ratioSum[t.VM.Type.Name] += t.ExecTime() / nominal
		a.ratioN[t.VM.Type.Name]++
	}
	a.done++
	if a.cooldct > 0 {
		a.cooldct--
	}
	minObs := a.MinObservations
	if minObs <= 0 {
		minObs = 10
	}
	if a.done < minObs || a.cooldct > 0 || a.done >= a.w.Len() {
		return
	}
	threshold := a.Threshold
	if threshold <= 0 {
		threshold = 1.2
	}
	drifted := false
	for ty, n := range a.ratioN {
		if n >= 3 && a.ratioSum[ty]/float64(n) >= threshold {
			drifted = true
			break
		}
	}
	if !drifted {
		return
	}
	// Re-plan the whole workflow with calibrated costs; adopt new
	// placements only for activations that have not started.
	h := &HEFT{Costs: a.est.CostFunc()}
	if err := h.Prepare(a.w, a.fleet, a.env); err != nil {
		return // keep the old plan on any planning error
	}
	for id, vm := range h.Assign() {
		if !a.started[id] {
			a.plan[id] = vm
		}
	}
	a.Replans++
	a.cooldct = minObs // cool down before considering another re-plan
}
