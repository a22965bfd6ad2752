// Package sched implements the scheduling algorithms the paper
// compares against (HEFT and the classical immediate-mode heuristics
// Min-Min, Max-Min, MCT) plus simple baselines (FCFS, round-robin,
// random) and a static-plan executor used to replay learned plans.
//
// All schedulers implement sim.Scheduler through a pointer. Dynamic
// schedulers decide at each "available" decision point; static planners
// (HEFT) compute a full activation→VM plan in Prepare and replay it.
// Each keeps per-run scratch (at least a slot budget indexed by VM ID,
// refilled per decision), so one scheduler value serves one run at a
// time.
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
type FCFS struct{ slots slots }

// Name implements sim.Scheduler.
func (*FCFS) Name() string { return "FCFS" }

// Prepare implements sim.Scheduler.
func (*FCFS) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error { return nil }

// Pick implements sim.Scheduler.
func (s *FCFS) Pick(ctx *sim.Context) []sim.Assignment {
	var out []sim.Assignment
	s.slots.fill(ctx)
	vi := 0
	for _, t := range ctx.Ready {
		for vi < len(ctx.IdleVMs) && s.slots.left(ctx.IdleVMs[vi]) == 0 {
			vi++
		}
		if vi == len(ctx.IdleVMs) {
			break
		}
		v := ctx.IdleVMs[vi]
		s.slots.take(v)
		out = append(out, sim.Assignment{Task: t, VM: v})
	}
	s.slots.reset(ctx)
	return out
}

// RoundRobin cycles through VMs (not slots) in ID order across
// decisions, skipping busy VMs.
type RoundRobin struct {
	next  int
	slots slots
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
	r.slots.fill(ctx)
	n := len(ctx.AllVMs)
	for _, t := range ctx.Ready {
		assigned := false
		for probe := 0; probe < n; probe++ {
			v := ctx.AllVMs[(r.next+probe)%n]
			if r.slots.left(v) > 0 {
				r.slots.take(v)
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
	r.slots.reset(ctx)
	return out
}

// Random assigns each ready activation to a uniformly random idle
// slot, using its own seeded source for reproducibility.
type Random struct {
	Seed  int64
	rng   *rand.Rand
	slots slots
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
	s.slots.fill(ctx)
	for _, t := range ctx.Ready {
		// Collect VMs that still have room this round.
		var open []*sim.VMState
		for _, v := range ctx.IdleVMs {
			if s.slots.left(v) > 0 {
				open = append(open, v)
			}
		}
		if len(open) == 0 {
			break
		}
		v := open[s.rng.Intn(len(open))]
		s.slots.take(v)
		out = append(out, sim.Assignment{Task: t, VM: v})
	}
	s.slots.reset(ctx)
	return out
}

// Plan replays a fixed activation→VM mapping: each ready activation
// waits until its planned VM has a free slot. Used to execute HEFT
// and learned ReASSIgN plans.
//
// A Plan serves one run at a time: Prepare resolves Assign into a
// table indexed by activation, and Pick keeps its slot budget and its
// result slice across decisions, so replaying a plan allocates nothing
// per decision. The slice Pick returns is valid until its next call.
type Plan struct {
	// PlanName labels the plan's origin (e.g. "HEFT", "ReASSIgN").
	PlanName string
	// Assign maps activation ID → VM ID.
	Assign map[string]int

	vm    []int // planned VM ID by activation index (Prepare)
	slots slots
	out   []sim.Assignment
}

// Name implements sim.Scheduler.
func (p *Plan) Name() string {
	if p.PlanName != "" {
		return p.PlanName
	}
	return "Plan"
}

// Prepare implements sim.Scheduler. It verifies the plan covers the
// workflow and references only fleet VMs, and indexes it by
// activation for Pick.
func (p *Plan) Prepare(w *dag.Workflow, fleet *cloud.Fleet, _ *sim.Env) error {
	if cap(p.vm) < w.Len() {
		p.vm = make([]int, w.Len())
	}
	p.vm = p.vm[:w.Len()]
	for _, a := range w.Activations() {
		vmID, ok := p.Assign[a.ID]
		if !ok {
			return fmt.Errorf("sched: plan misses activation %s", a.ID)
		}
		if vmID < 0 || vmID >= fleet.Len() {
			return fmt.Errorf("sched: plan maps %s to unknown VM %d", a.ID, vmID)
		}
		p.vm[a.Index] = vmID
	}
	return nil
}

// Pick implements sim.Scheduler.
func (p *Plan) Pick(ctx *sim.Context) []sim.Assignment {
	p.slots.fill(ctx)
	if cap(p.out) < len(ctx.Ready) {
		p.out = make([]sim.Assignment, 0, len(ctx.Ready))
	}
	out := p.out[:0]
	for _, t := range ctx.Ready {
		v := p.slots.open(p.vm[t.Act.Index])
		if v == nil {
			continue // planned VM busy; wait for it
		}
		p.slots.take(v)
		out = append(out, sim.Assignment{Task: t, VM: v})
	}
	p.slots.reset(ctx)
	p.out = out
	return out
}

// slots is one decision's free-slot budget, indexed by VM ID. fill
// records every idle VM with its free slots, take spends one and reset
// zeroes what fill set, so each decision starts from a clean table. A
// scheduler keeps one across its run: once the table covers the fleet,
// a decision allocates nothing for it.
type slots struct {
	free []int
	vm   []*sim.VMState // the idle VM with each ID, nil for the others
}

// fill loads the budget of each idle VM, first sizing the table to
// the fleet: ctx.AllVMs, whose IDs are its indices. A table sized for a
// smaller fleet is all zeros between decisions, so it is replaced, not
// grown.
func (s *slots) fill(ctx *sim.Context) {
	if n := len(ctx.AllVMs); n > len(s.free) {
		s.free = make([]int, n)
		s.vm = make([]*sim.VMState, n)
	}
	for _, v := range ctx.IdleVMs {
		s.free[v.VM.ID] = v.FreeSlots()
		s.vm[v.VM.ID] = v
	}
}

// left returns the slots v has left this decision: none unless fill
// found v idle.
func (s *slots) left(v *sim.VMState) int { return s.free[v.VM.ID] }

// take spends one of v's slots.
func (s *slots) take(v *sim.VMState) { s.free[v.VM.ID]-- }

// open returns the idle VM with the given ID while it has a slot left
// this decision, and nil otherwise.
func (s *slots) open(id int) *sim.VMState {
	if s.free[id] == 0 {
		return nil
	}
	return s.vm[id]
}

// reset zeroes the entries fill set from the same context.
func (s *slots) reset(ctx *sim.Context) {
	for _, v := range ctx.IdleVMs {
		s.free[v.VM.ID] = 0
		s.vm[v.VM.ID] = nil
	}
}
