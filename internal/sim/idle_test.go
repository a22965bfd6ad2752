package sim

import (
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/trace"
)

// idleAudit is a Hook that, at every engine transition, checks the
// engine's idle-VM counter against a scan of its VMs and the ready
// list against its (ReadyAt, Index) order.
type idleAudit struct {
	t *testing.T
	g **Engine
	// checks counts transitions seen with at least one VM busy, so the
	// test can tell the counter was exercised off its initial value.
	checks *int
}

func (a idleAudit) RunStart(*Env) RunHook { return a }

func (a idleAudit) check(now float64, at string) {
	g := *a.g
	idle := 0
	for _, v := range g.vms {
		if v.Idle() {
			idle++
		}
	}
	if g.nIdle != idle {
		a.t.Fatalf("t=%v, %s: nIdle = %d, scan counts %d idle VMs", now, at, g.nIdle, idle)
	}
	if idle < len(g.vms) {
		*a.checks++
	}
	for i := 1; i < len(g.ready); i++ {
		p, q := g.ready[i-1], g.ready[i]
		if p.ReadyAt > q.ReadyAt || p.ReadyAt == q.ReadyAt && p.Act.Index >= q.Act.Index {
			a.t.Fatalf("t=%v, %s: ready[%d] = task %d ready at %v, before task %d ready at %v",
				now, at, i-1, p.Act.Index, p.ReadyAt, q.Act.Index, q.ReadyAt)
		}
	}
}

func (a idleAudit) Decision(now float64, _ *Context)            { a.check(now, "decision") }
func (a idleAudit) TaskReady(now float64, _ *Task)              { a.check(now, "task ready") }
func (a idleAudit) TaskStart(now float64, _ *Task, _ *VMState)  { a.check(now, "task start") }
func (a idleAudit) TaskFinish(now float64, _ *Task, _ *VMState) { a.check(now, "task finish") }
func (a idleAudit) RunEnd(res *Result)                          { a.check(res.Makespan, "run end") }

// TestIdleCounterMatchesScan: the idle-VM counter behind the workflow
// state stays equal to a scan of the VMs, and the ready list stays in
// (ReadyAt, Index) order, at every transition of fresh runs, Reset
// runs and runs of an engine rebound to a larger fleet. The fleets mix
// one-slot and multi-slot VMs, so a VM leaves the idle set only when
// its last slot is taken.
func TestIdleCounterMatchesScan(t *testing.T) {
	fleet16, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	fleet32, err := cloud.FleetTable1(32)
	if err != nil {
		t.Fatal(err)
	}
	fluct := cloud.DefaultFluctuation()
	checks := 0
	for seed := int64(1); seed <= 5; seed++ {
		var g *Engine
		cfg := Config{Seed: seed, Fluct: &fluct, Hook: idleAudit{t, &g, &checks}}
		w := trace.Montage50(rand.New(rand.NewSource(seed)))
		if g, err = NewEngine(w, fleet16, &greedyFirst{}, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		g.Reset(cfg)
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		w2 := trace.MontageN(rand.New(rand.NewSource(seed)), 80)
		if err := g.Rebind(w2, fleet32, &greedyFirst{}, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if checks == 0 {
		t.Fatal("no transition saw a busy VM: the scenario does not exercise the counter")
	}
}
