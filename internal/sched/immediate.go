package sched

import (
	"math"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/sim"
)

// MCT (Minimum Completion Time) assigns each ready activation, in
// ready order, to the idle VM with the smallest estimated completion
// time for it.
type MCT struct{ slots slots }

// Name implements sim.Scheduler.
func (*MCT) Name() string { return "MCT" }

// Prepare implements sim.Scheduler.
func (*MCT) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error { return nil }

// Pick implements sim.Scheduler.
func (s *MCT) Pick(ctx *sim.Context) []sim.Assignment {
	s.slots.fill(ctx)
	var out []sim.Assignment
	for _, t := range ctx.Ready {
		best, _ := pickMinVM(ctx, t, &s.slots)
		if best == nil {
			break
		}
		s.slots.take(best)
		out = append(out, sim.Assignment{Task: t, VM: best})
	}
	s.slots.reset(ctx)
	return out
}

// pickMinVM returns the open VM minimizing the estimated execution
// time of t, or nil when every VM is exhausted this round.
func pickMinVM(ctx *sim.Context, t *sim.Task, free *slots) (*sim.VMState, float64) {
	var best *sim.VMState
	bestCT := math.Inf(1)
	for _, v := range ctx.IdleVMs {
		if free.left(v) == 0 {
			continue
		}
		ct := ctx.Env.EstimateExec(t.Act, v.VM)
		if ct < bestCT {
			bestCT = ct
			best = v
		}
	}
	return best, bestCT
}

// MinMin repeatedly assigns the (activation, VM) pair with the
// globally minimum estimated completion time: short tasks first, each
// on its best machine.
type MinMin struct{ slots slots }

// Name implements sim.Scheduler.
func (*MinMin) Name() string { return "MinMin" }

// Prepare implements sim.Scheduler.
func (*MinMin) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error { return nil }

// Pick implements sim.Scheduler.
func (s *MinMin) Pick(ctx *sim.Context) []sim.Assignment {
	return minMaxLoop(ctx, &s.slots, false)
}

// MaxMin repeatedly assigns the activation whose best completion time
// is largest (long tasks first, each on its best machine).
type MaxMin struct{ slots slots }

// Name implements sim.Scheduler.
func (*MaxMin) Name() string { return "MaxMin" }

// Prepare implements sim.Scheduler.
func (*MaxMin) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error { return nil }

// Pick implements sim.Scheduler.
func (s *MaxMin) Pick(ctx *sim.Context) []sim.Assignment {
	return minMaxLoop(ctx, &s.slots, true)
}

func minMaxLoop(ctx *sim.Context, free *slots, maxFirst bool) []sim.Assignment {
	free.fill(ctx)
	pending := append([]*sim.Task(nil), ctx.Ready...)
	var out []sim.Assignment
	for len(pending) > 0 {
		bestIdx := -1
		var bestVM *sim.VMState
		bestKey := math.Inf(1)
		if maxFirst {
			bestKey = math.Inf(-1)
		}
		for i, t := range pending {
			v, ct := pickMinVM(ctx, t, free)
			if v == nil {
				continue
			}
			better := ct < bestKey
			if maxFirst {
				better = ct > bestKey
			}
			if better {
				bestKey, bestIdx, bestVM = ct, i, v
			}
		}
		if bestIdx < 0 {
			break
		}
		free.take(bestVM)
		out = append(out, sim.Assignment{Task: pending[bestIdx], VM: bestVM})
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
	}
	free.reset(ctx)
	return out
}

// DataAware places each ready activation on the idle VM already
// holding the most input bytes (minimising staging), breaking ties by
// estimated execution time.
type DataAware struct{ slots slots }

// Name implements sim.Scheduler.
func (*DataAware) Name() string { return "DataAware" }

// Prepare implements sim.Scheduler.
func (*DataAware) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error { return nil }

// Pick implements sim.Scheduler.
func (s *DataAware) Pick(ctx *sim.Context) []sim.Assignment {
	s.slots.fill(ctx)
	var out []sim.Assignment
	for _, t := range ctx.Ready {
		var best *sim.VMState
		bestLocal := int64(-1)
		bestCT := math.Inf(1)
		for _, v := range ctx.IdleVMs {
			if s.slots.left(v) == 0 {
				continue
			}
			var local int64
			for _, f := range t.Act.Inputs {
				if v.HasFile(f.Name) {
					local += f.Size
				}
			}
			ct := ctx.Env.EstimateExec(t.Act, v.VM)
			if local > bestLocal || (local == bestLocal && ct < bestCT) {
				best, bestLocal, bestCT = v, local, ct
			}
		}
		if best == nil {
			break
		}
		s.slots.take(best)
		out = append(out, sim.Assignment{Task: t, VM: best})
	}
	s.slots.reset(ctx)
	return out
}

// CheapFirst places each ready activation on the idle VM with the
// lowest hourly price per slot (ties broken by estimated execution
// time) — the cost-frontier extreme opposite to MCT, used with
// Result.BusyCost to study cost/performance trade-offs.
type CheapFirst struct{ slots slots }

// Name implements sim.Scheduler.
func (*CheapFirst) Name() string { return "CheapFirst" }

// Prepare implements sim.Scheduler.
func (*CheapFirst) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error { return nil }

// Pick implements sim.Scheduler.
func (s *CheapFirst) Pick(ctx *sim.Context) []sim.Assignment {
	s.slots.fill(ctx)
	var out []sim.Assignment
	for _, t := range ctx.Ready {
		var best *sim.VMState
		bestPrice := math.Inf(1)
		bestCT := math.Inf(1)
		for _, v := range ctx.IdleVMs {
			if s.slots.left(v) == 0 {
				continue
			}
			price := v.VM.Type.PricePerHour / float64(v.VM.Type.VCPUs)
			ct := ctx.Env.EstimateExec(t.Act, v.VM)
			if price < bestPrice || (price == bestPrice && ct < bestCT) {
				best, bestPrice, bestCT = v, price, ct
			}
		}
		if best == nil {
			break
		}
		s.slots.take(best)
		out = append(out, sim.Assignment{Task: t, VM: best})
	}
	s.slots.reset(ctx)
	return out
}
