package sched

import (
	"math"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/sim"
)

// SiteAware schedules for multi-site fleets: each ready activation
// goes to an idle VM in the site already holding the most of its
// input bytes (avoiding slow inter-site links), with estimated
// execution time breaking ties within and across sites. On
// single-site fleets it degrades to MCT-like behaviour.
type SiteAware struct{ slots slots }

// Name implements sim.Scheduler.
func (*SiteAware) Name() string { return "SiteAware" }

// Prepare implements sim.Scheduler.
func (*SiteAware) Prepare(*dag.Workflow, *cloud.Fleet, *sim.Env) error { return nil }

// Pick implements sim.Scheduler.
func (s *SiteAware) Pick(ctx *sim.Context) []sim.Assignment {
	s.slots.fill(ctx)
	var out []sim.Assignment
	for _, t := range ctx.Ready {
		// Bytes of this activation's inputs resident per site (any VM
		// of the site counts: intra-site staging is cheap).
		siteBytes := make(map[string]int64)
		for _, v := range ctx.AllVMs {
			for _, f := range t.Act.Inputs {
				if v.HasFile(f.Name) {
					siteBytes[v.VM.Site] += f.Size
				}
			}
		}
		var best *sim.VMState
		bestLocal := int64(-1)
		bestCT := math.Inf(1)
		for _, v := range ctx.IdleVMs {
			if s.slots.left(v) == 0 {
				continue
			}
			local := siteBytes[v.VM.Site]
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
