// Package sched implements the scheduling algorithms the paper
// compares against (HEFT and the classical immediate-mode heuristics
// Min-Min, Max-Min, MCT) plus simple baselines (FCFS, round-robin,
// random) and a static-plan executor used to replay learned plans.
//
// All schedulers implement sim.Scheduler. Dynamic schedulers decide
// at each "available" decision point; static planners (HEFT) compute
// a full activation→VM plan in Prepare and replay it.
package sched

import (
	"fmt"
	"math/rand"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/randsrc"
	"reassign/internal/sim"
)

// FCFS assigns ready activations in ready order to the first idle VM
// slots, lowest VM ID first.
type FCFS struct{}

// Name implements sim.Scheduler.
func (FCFS) Name() string { return "FCFS" }

// Prepare implements sim.Scheduler.
func (FCFS) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error { return nil }

// Pick implements sim.Scheduler.
func (FCFS) Pick(ctx *sim.Context) []sim.Assignment {
	var out []sim.Assignment
	free := freeSlots(ctx.IdleVMs)
	vi := 0
	for _, t := range ctx.Ready {
		for vi < len(ctx.IdleVMs) && free[ctx.IdleVMs[vi]] == 0 {
			vi++
		}
		if vi == len(ctx.IdleVMs) {
			break
		}
		v := ctx.IdleVMs[vi]
		free[v]--
		out = append(out, sim.Assignment{Task: t, VM: v})
	}
	return out
}

// RoundRobin cycles through VMs (not slots) in ID order across
// decisions, skipping busy VMs.
type RoundRobin struct {
	next int
}

// Name implements sim.Scheduler.
func (*RoundRobin) Name() string { return "RoundRobin" }

// Prepare implements sim.Scheduler.
func (r *RoundRobin) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error {
	r.next = 0
	return nil
}

// Pick implements sim.Scheduler.
func (r *RoundRobin) Pick(ctx *sim.Context) []sim.Assignment {
	var out []sim.Assignment
	free := freeSlots(ctx.IdleVMs)
	n := len(ctx.AllVMs)
	for _, t := range ctx.Ready {
		assigned := false
		for probe := 0; probe < n; probe++ {
			v := ctx.AllVMs[(r.next+probe)%n]
			if free[v] > 0 {
				free[v]--
				out = append(out, sim.Assignment{Task: t, VM: v})
				r.next = (v.VM.ID + 1) % n
				assigned = true
				break
			}
		}
		if !assigned {
			break
		}
	}
	return out
}

// Random assigns each ready activation to a uniformly random idle
// slot, using its own seeded source for reproducibility.
type Random struct {
	Seed int64
	rng  *rand.Rand
}

// Name implements sim.Scheduler.
func (*Random) Name() string { return "Random" }

// Prepare implements sim.Scheduler.
func (s *Random) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error {
	s.rng = rand.New(randsrc.New(s.Seed))
	return nil
}

// Pick implements sim.Scheduler.
func (s *Random) Pick(ctx *sim.Context) []sim.Assignment {
	var out []sim.Assignment
	free := freeSlots(ctx.IdleVMs)
	for _, t := range ctx.Ready {
		// Collect VMs that still have room this round.
		var open []*sim.VMState
		for _, v := range ctx.IdleVMs {
			if free[v] > 0 {
				open = append(open, v)
			}
		}
		if len(open) == 0 {
			break
		}
		v := open[s.rng.Intn(len(open))]
		free[v]--
		out = append(out, sim.Assignment{Task: t, VM: v})
	}
	return out
}

// Plan replays a fixed activation→VM mapping: each ready activation
// waits until its planned VM has a free slot. Used to execute HEFT
// and learned ReASSIgN plans.
type Plan struct {
	// PlanName labels the plan's origin (e.g. "HEFT", "ReASSIgN").
	PlanName string
	// Assign maps activation ID → VM ID.
	Assign map[string]int
}

// Name implements sim.Scheduler.
func (p *Plan) Name() string {
	if p.PlanName != "" {
		return p.PlanName
	}
	return "Plan"
}

// Prepare implements sim.Scheduler. It verifies the plan covers the
// workflow and references only fleet VMs.
func (p *Plan) Prepare(w *dag.Workflow, fleet *cloud.Fleet, _ *sim.Env) error {
	for _, a := range w.Activations() {
		vmID, ok := p.Assign[a.ID]
		if !ok {
			return fmt.Errorf("sched: plan misses activation %s", a.ID)
		}
		if vmID < 0 || vmID >= fleet.Len() {
			return fmt.Errorf("sched: plan maps %s to unknown VM %d", a.ID, vmID)
		}
	}
	return nil
}

// Pick implements sim.Scheduler.
func (p *Plan) Pick(ctx *sim.Context) []sim.Assignment {
	free := freeSlots(ctx.IdleVMs)
	byID := make(map[int]*sim.VMState, len(ctx.IdleVMs))
	for _, v := range ctx.IdleVMs {
		byID[v.VM.ID] = v
	}
	var out []sim.Assignment
	for _, t := range ctx.Ready {
		v, ok := byID[p.Assign[t.Act.ID]]
		if !ok || free[v] == 0 {
			continue // planned VM busy; wait for it
		}
		free[v]--
		out = append(out, sim.Assignment{Task: t, VM: v})
	}
	return out
}

// freeSlots snapshots the free-slot budget for one decision round.
func freeSlots(vms []*sim.VMState) map[*sim.VMState]int {
	m := make(map[*sim.VMState]int, len(vms))
	for _, v := range vms {
		m[v] = v.FreeSlots()
	}
	return m
}
