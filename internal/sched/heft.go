package sched

import (
	"math"
	"sort"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/sim"
)

// HEFT is the Heterogeneous Earliest Finish Time list scheduler
// (Topcuoglu et al., 2002) — the baseline the paper compares
// ReASSIgN against, and WorkflowSim's default planner.
//
// HEFT is a static planner: Prepare computes upward ranks over mean
// computation and communication costs, then assigns each activation
// (in decreasing rank order) to the execution slot minimising its
// earliest finish time with an insertion-based policy. Pick then
// replays the resulting activation→VM plan.
type HEFT struct {
	// Costs, when non-nil, overrides the execution-time estimate used
	// for ranking and EFT (e.g. a provenance-calibrated predictor
	// from package estimate). Nil uses the environment's nominal
	// estimates — the paper's "blind" HEFT.
	Costs func(a *dag.Activation, vm *cloud.VM) float64

	plan Plan
	// PlannedMakespan is the schedule length HEFT predicted; the
	// simulated makespan may differ under contention or fluctuation.
	PlannedMakespan float64
}

// Name implements sim.Scheduler.
func (*HEFT) Name() string { return "HEFT" }

// processor is one execution slot of a VM.
type processor struct {
	vm    *cloud.VM
	sched []interval // busy intervals, sorted by start
}

type interval struct{ start, end float64 }

// Prepare implements sim.Scheduler: it computes the full plan.
func (h *HEFT) Prepare(w *dag.Workflow, fleet *cloud.Fleet, env *sim.Env) error {
	order, err := w.TopoOrder()
	if err != nil {
		return err
	}
	useComm := env != nil && env.DataTransferEnabled()

	// Slot-level processors.
	var procs []*processor
	for _, vm := range fleet.VMs {
		for s := 0; s < vm.Type.VCPUs; s++ {
			procs = append(procs, &processor{vm: vm})
		}
	}

	cost := func(a *dag.Activation, vm *cloud.VM) float64 {
		if h.Costs != nil {
			return h.Costs(a, vm)
		}
		return execCost(a, vm, env)
	}

	// Mean computation cost per activation, weighted by slot counts.
	// procs groups a VM's slots consecutively, so the estimate is
	// computed once per VM and added once per slot — the same
	// addition sequence (hence bit-identical mean) as the per-slot
	// loop, at a fraction of the cost on many-vCPU fleets.
	wbar := make([]float64, w.Len())
	for _, a := range w.Activations() {
		var sum float64
		var lastVM *cloud.VM
		var lastCost float64
		for _, p := range procs {
			if p.vm != lastVM {
				lastVM, lastCost = p.vm, cost(a, p.vm)
			}
			sum += lastCost
		}
		wbar[a.Index] = sum / float64(len(procs))
	}

	// Mean bandwidth for average communication costs.
	var bwSum float64
	for _, p := range procs {
		bwSum += p.vm.Type.NetMBps
	}
	meanBW := bwSum / float64(len(procs))
	cbar := func(from, to *dag.Activation) float64 {
		if !useComm || meanBW <= 0 {
			return 0
		}
		return float64(sharedBytes(from, to)) / (meanBW * 1e6)
	}

	// Upward ranks, computed in reverse topological order.
	rank := make([]float64, w.Len())
	for i := len(order) - 1; i >= 0; i-- {
		a := order[i]
		best := 0.0
		for _, c := range a.Children() {
			if v := cbar(a, c) + rank[c.Index]; v > best {
				best = v
			}
		}
		rank[a.Index] = wbar[a.Index] + best
	}

	// Schedule in decreasing rank order (ties by index for
	// determinism).
	tasks := append([]*dag.Activation(nil), w.Activations()...)
	sort.Slice(tasks, func(i, j int) bool {
		if rank[tasks[i].Index] != rank[tasks[j].Index] {
			return rank[tasks[i].Index] > rank[tasks[j].Index]
		}
		return tasks[i].Index < tasks[j].Index
	})

	aft := make([]float64, w.Len())      // actual finish time per task
	where := make([]*processor, w.Len()) // chosen processor per task
	assign := make(map[string]int, w.Len())
	makespan := 0.0
	for _, a := range tasks {
		var bestP *processor
		bestStart, bestEFT := 0.0, math.Inf(1)
		// dur depends only on the VM, not the slot; hoist it across a
		// VM's consecutive slots.
		var durVM *cloud.VM
		var dur float64
		for _, p := range procs {
			// Earliest start constrained by parents' data arrival.
			ready := 0.0
			for _, par := range a.Parents() {
				arrive := aft[par.Index]
				if useComm && where[par.Index] != nil && where[par.Index].vm != p.vm && p.vm.Type.NetMBps > 0 {
					arrive += float64(sharedBytes(par, a)) / (p.vm.Type.NetMBps * 1e6)
				}
				if arrive > ready {
					ready = arrive
				}
			}
			if p.vm != durVM {
				durVM, dur = p.vm, cost(a, p.vm)
			}
			start := p.earliestSlot(ready, dur)
			if eft := start + dur; eft < bestEFT {
				bestEFT, bestStart, bestP = eft, start, p
			}
		}
		bestP.insert(interval{bestStart, bestEFT})
		aft[a.Index] = bestEFT
		where[a.Index] = bestP
		assign[a.ID] = bestP.vm.ID
		if bestEFT > makespan {
			makespan = bestEFT
		}
	}

	h.plan.PlanName, h.plan.Assign = "HEFT", assign
	h.PlannedMakespan = makespan
	return h.plan.Prepare(w, fleet, env)
}

// Pick implements sim.Scheduler by replaying the plan.
func (h *HEFT) Pick(ctx *sim.Context) []sim.Assignment { return h.plan.Pick(ctx) }

// Assign returns the computed activation→VM plan (valid after
// Prepare).
func (h *HEFT) Assign() map[string]int { return h.plan.Assign }

// execCost estimates a's execution time on vm, via the environment
// when available.
func execCost(a *dag.Activation, vm *cloud.VM, env *sim.Env) float64 {
	if env != nil {
		return env.EstimateExec(a, vm)
	}
	return a.Runtime / vm.Type.Speed
}

// sharedBytes sums the sizes of files produced by from and consumed
// by to.
func sharedBytes(from, to *dag.Activation) int64 {
	var n int64
	for _, out := range from.Outputs {
		for _, in := range to.Inputs {
			if out.Name == in.Name {
				n += out.Size
				break
			}
		}
	}
	return n
}

// earliestSlot returns the earliest start ≥ ready with a gap of at
// least dur in the processor's schedule (insertion policy).
func (p *processor) earliestSlot(ready, dur float64) float64 {
	start := ready
	for _, iv := range p.sched {
		if start+dur <= iv.start {
			return start
		}
		if iv.end > start {
			start = iv.end
		}
	}
	return start
}

// insert adds a busy interval, keeping the schedule sorted.
func (p *processor) insert(iv interval) {
	i := sort.Search(len(p.sched), func(i int) bool { return p.sched[i].start >= iv.start })
	p.sched = append(p.sched, interval{})
	copy(p.sched[i+1:], p.sched[i:])
	p.sched[i] = iv
}
