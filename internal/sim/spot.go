package sim

import (
	"fmt"
	"strings"

	"reassign/internal/cloud"
)

// SpotPolicy models spot/preemptible instances: eligible VMs are
// revoked at exponentially distributed times, killing whatever runs
// on them. Killed activations return to the ready queue and are
// rescheduled elsewhere (their aborted attempt appears as a failed
// record). A revoked VM never comes back.
//
// Static plan replays (sched.Plan, HEFT, GA) deadlock if a planned VM
// is revoked — the run ends with a stall error, which is the honest
// outcome of pinning work to a vanished machine. Dynamic schedulers
// (MCT, ReASSIgN, …) reroute transparently.
type SpotPolicy struct {
	// MeanLifetime is the expected time until revocation per eligible
	// VM, in virtual seconds.
	MeanLifetime float64
	// EligibleType restricts revocation to one VM type name
	// ("" = every VM is a spot instance).
	EligibleType string
	// KeepOne protects the lowest-ID eligible VM from revocation so a
	// fully-spot fleet cannot strand the workflow.
	KeepOne bool
}

func (p *SpotPolicy) validate() error {
	if p.MeanLifetime <= 0 {
		return fmt.Errorf("sim: spot MeanLifetime must be positive")
	}
	return nil
}

// eligible reports whether the policy may revoke VMs of this type.
func (p *SpotPolicy) eligible(t cloud.VMType) bool {
	return p.EligibleType == "" || strings.EqualFold(t.Name, p.EligibleType)
}

// scheduleRevocations draws one revocation time per eligible VM of
// the initial fleet. Acquired VMs draw theirs at acquisition time
// (scheduleSpotRevocation).
func (g *Engine) scheduleRevocations() {
	p := g.cfg.Spot
	if p == nil {
		return
	}
	kept := false
	for _, v := range g.vms {
		if !p.eligible(v.VM.Type) {
			continue
		}
		if p.KeepOne && !kept {
			kept = true
			continue
		}
		v := v
		at := g.env.rng.ExpFloat64() * p.MeanLifetime
		g.sim.At(at, func() { g.revoke(v) })
	}
}

// scheduleSpotRevocation draws a revocation time for a VM acquired by
// the autoscaler mid-run. Its spot lifetime starts when it boots;
// KeepOne only protects the initial fleet.
func (g *Engine) scheduleSpotRevocation(v *VMState, bootAt float64) {
	p := g.cfg.Spot
	if p == nil || !p.eligible(v.VM.Type) {
		return
	}
	at := bootAt + g.env.rng.ExpFloat64()*p.MeanLifetime
	g.sim.At(at, func() { g.revoke(v) })
}

// revoke kills a VM: running activations are aborted back to the
// ready queue in task-index order, the VM never accepts work again.
// The autoscaler, when active, is told so the corpse stops counting
// against MaxVMs and stops billing.
func (g *Engine) revoke(v *VMState) {
	if g.remaining == 0 || !v.booted {
		return
	}
	g.setBooted(v, false)
	g.result.Revocations++
	if g.hook != nil {
		g.hook.VMRevoked(g.sim.Now(), v)
	}
	if g.scaler != nil {
		g.scaler.vmRevoked(v, g.sim.Now())
	}
	for i := range g.running {
		run := &g.running[i]
		if run.vm != v {
			continue
		}
		run.ref.Cancel()
		*run = runningTask{}
		v.release()
		t := g.tasks[i]
		// The aborted attempt shows up as an unsuccessful record
		// ending at the revocation instant.
		t.FinishAt = g.sim.Now()
		g.record(t, v, false)
		g.pushReady(t)
		if g.hook != nil {
			g.hook.TaskAbort(g.sim.Now(), t, v)
			g.hook.TaskReady(t.ReadyAt, t)
		}
	}
	g.postCycle()
}
