// Package invariant is the simulation correctness harness: a runtime
// auditor that watches sim.Engine runs through the sim.Hook interface
// and checks structural invariants at every transition, plus
// differential helpers (DiffResults, CloneResult) used by the
// determinism test suites and the -audit mode of the binaries.
//
// The auditor checks, during the run:
//
//   - the virtual clock never goes backwards and is never NaN;
//   - VM slot accounting never goes negative and never exceeds the
//     VM's vCPU count, cross-checked against the engine's own
//     FreeSlots bookkeeping;
//   - the scheduling context is well-formed at every decision: the
//     ready queue is sorted by (ReadyAt, Index) without duplicates,
//     and idle VMs are actually idle;
//
// and at the end of the run:
//
//   - every task reached exactly one terminal state, with one
//     execution record per attempt;
//   - Result.Records and Result.PerVM agree (count, exec, wait and
//     busy conservation);
//   - Makespan, Cost and BusyCost are consistent with the observed
//     events.
//
// A single Auditor may observe any number of runs, including runs of
// concurrent engines (replica learning): per-run state lives in the
// RunHook returned by RunStart, and only violation reporting is
// mutex-guarded.
package invariant

import (
	"fmt"
	"math"
	"sync"

	"reassign/internal/sim"
)

// Violation is one invariant breach observed during a run.
type Violation struct {
	// Run is the auditor-assigned ordinal of the run (0-based, in
	// RunStart order).
	Run int
	// Time is the virtual clock when the breach was observed.
	Time float64
	// Rule is a short stable identifier, e.g. "slot-overcommit".
	Rule string
	// Detail is a human-readable description.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("run %d t=%.6g [%s] %s", v.Run, v.Time, v.Rule, v.Detail)
}

// Auditor checks structural invariants across simulation runs. Install
// it via sim.Config.Hook; read the outcome with Err or Violations.
// The zero value is not usable; call New.
type Auditor struct {
	mu         sync.Mutex
	runs       int
	total      int // violations observed (including dropped)
	violations []Violation
	limit      int // stored violations; those beyond it are only counted
}

// New returns an Auditor ready to be installed as a sim.Config.Hook.
// It stores the first 100 violations.
func New() *Auditor { return &Auditor{limit: 100} }

// RunStart implements sim.Hook.
func (a *Auditor) RunStart(env *sim.Env) sim.RunHook {
	a.mu.Lock()
	run := a.runs
	a.runs++
	a.mu.Unlock()
	return &runAudit{
		a:     a,
		run:   run,
		env:   env,
		busy:  make(map[*sim.VMState]int),
		tasks: make(map[*sim.Task]*taskAudit),
	}
}

// Runs returns how many runs the auditor has observed (started).
func (a *Auditor) Runs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.runs
}

// Total returns the number of violations observed, including any
// dropped beyond the storage limit.
func (a *Auditor) Total() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Violations returns a copy of the stored violations.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// Err returns nil when no invariant was violated, and otherwise an
// error summarising the first violation and the total count.
func (a *Auditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.total == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s) across %d run(s); first: %s",
		a.total, a.runs, a.violations[0])
}

func (a *Auditor) report(v Violation) {
	a.mu.Lock()
	a.total++
	if len(a.violations) < a.limit {
		a.violations = append(a.violations, v)
	}
	a.mu.Unlock()
}

// taskAudit is the auditor's view of one task's lifecycle.
type taskAudit struct {
	starts   int // TaskStart events (attempts)
	terminal int // TaskFinish events (execution records, and the only terminal transition)
	running  bool
}

// runAudit is the per-run observer returned by RunStart.
type runAudit struct {
	a   *Auditor
	run int
	env *sim.Env

	last  float64 // clock high-water mark
	busy  map[*sim.VMState]int
	tasks map[*sim.Task]*taskAudit

	readyEvents int
}

func (r *runAudit) fail(now float64, rule, format string, args ...any) {
	r.a.report(Violation{Run: r.run, Time: now, Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// clock enforces monotonicity of the virtual clock across every hook.
func (r *runAudit) clock(now float64) {
	if math.IsNaN(now) {
		r.fail(now, "clock-nan", "virtual clock is NaN")
		return
	}
	if now < r.last {
		r.fail(now, "clock-monotonic", "clock went backwards: %v after %v", now, r.last)
		return
	}
	r.last = now
}

func (r *runAudit) task(t *sim.Task) *taskAudit {
	ta := r.tasks[t]
	if ta == nil {
		ta = &taskAudit{}
		r.tasks[t] = ta
	}
	return ta
}

// Decision implements sim.RunHook.
func (r *runAudit) Decision(now float64, ctx *sim.Context) {
	r.clock(now)
	if ctx.Now != now {
		r.fail(now, "ctx-clock", "context Now %v != clock %v", ctx.Now, now)
	}
	seen := make(map[*sim.Task]bool, len(ctx.Ready))
	for i, t := range ctx.Ready {
		if seen[t] {
			r.fail(now, "ready-duplicate", "task %s appears twice in the ready queue", t.Act.ID)
		}
		seen[t] = true
		if t.State != sim.Ready {
			r.fail(now, "ready-state", "task %s in ready queue with state %v", t.Act.ID, t.State)
		}
		if i == 0 {
			continue
		}
		p := ctx.Ready[i-1]
		if p.ReadyAt > t.ReadyAt || (p.ReadyAt == t.ReadyAt && p.Act.Index >= t.Act.Index) {
			r.fail(now, "ready-order", "ready queue not sorted by (ReadyAt, Index): (%v,%d) before (%v,%d)",
				p.ReadyAt, p.Act.Index, t.ReadyAt, t.Act.Index)
		}
	}
	for _, v := range ctx.IdleVMs {
		if !v.Idle() {
			r.fail(now, "idle-not-idle", "%v listed idle but is not", v)
		}
	}
}

// TaskReady implements sim.RunHook.
func (r *runAudit) TaskReady(now float64, t *sim.Task) {
	r.clock(now)
	r.readyEvents++
	if t.State != sim.Ready {
		r.fail(now, "ready-state", "task %s became ready with state %v", t.Act.ID, t.State)
	}
	if t.ReadyAt != now {
		r.fail(now, "ready-time", "task %s ReadyAt %v != now %v", t.Act.ID, t.ReadyAt, now)
	}
}

// TaskStart implements sim.RunHook.
func (r *runAudit) TaskStart(now float64, t *sim.Task, v *sim.VMState) {
	r.clock(now)
	ta := r.task(t)
	ta.starts++
	if ta.running {
		r.fail(now, "double-start", "task %s started while already running", t.Act.ID)
	}
	ta.running = true
	if t.State != sim.Running {
		r.fail(now, "start-state", "task %s started with state %v", t.Act.ID, t.State)
	}
	if t.Attempts != ta.starts {
		r.fail(now, "attempt-count", "task %s Attempts %d after %d observed starts", t.Act.ID, t.Attempts, ta.starts)
	}
	r.busy[v]++
	if r.busy[v] > v.Slots {
		r.fail(now, "slot-overcommit", "%v holds %d tasks with %d slots", v, r.busy[v], v.Slots)
	}
	if free := v.Slots - r.busy[v]; v.FreeSlots() != free {
		r.fail(now, "slot-divergence", "%v reports %d free slots, auditor counts %d", v, v.FreeSlots(), free)
	}
}

// TaskFinish implements sim.RunHook.
func (r *runAudit) TaskFinish(now float64, t *sim.Task, v *sim.VMState) {
	r.clock(now)
	ta := r.task(t)
	ta.terminal++
	if !ta.running {
		r.fail(now, "finish-not-running", "task %s finished while not running", t.Act.ID)
	}
	ta.running = false
	r.busy[v]--
	if r.busy[v] < 0 {
		r.fail(now, "slot-negative", "%v released below zero", v)
	}
	if t.State != sim.Succeeded {
		r.fail(now, "finish-state", "task %s succeeded with state %v", t.Act.ID, t.State)
	}
	if t.FinishAt != now {
		r.fail(now, "finish-time", "task %s FinishAt %v != now %v", t.Act.ID, t.FinishAt, now)
	}
	if t.StartAt > t.FinishAt {
		r.fail(now, "finish-before-start", "task %s started %v after finishing %v", t.Act.ID, t.StartAt, t.FinishAt)
	}
}

// RunEnd implements sim.RunHook.
func (r *runAudit) RunEnd(res *sim.Result) {
	now := r.last
	const eps = 1e-9

	// Task lifecycle: exactly one terminal state, one record per
	// attempt, nothing left running.
	records := 0
	for t, ta := range r.tasks {
		records += ta.terminal
		if ta.running {
			r.fail(now, "task-still-running", "task %s still running at run end", t.Act.ID)
		}
		if ta.starts != ta.terminal {
			r.fail(now, "attempt-record-mismatch", "task %s: %d attempts but %d records",
				t.Act.ID, ta.starts, ta.terminal)
		}
		if ta.terminal != 1 {
			r.fail(now, "terminal-count", "task %s reached %d terminal states, want exactly 1",
				t.Act.ID, ta.terminal)
		}
	}
	if len(res.Records) != records {
		r.fail(now, "record-conservation", "result has %d records, auditor observed %d",
			len(res.Records), records)
	}
	if res.State == sim.FinishedOK {
		w := r.env.Workflow()
		if len(r.tasks) != w.Len() {
			r.fail(now, "task-coverage", "finished-ok run touched %d of %d tasks", len(r.tasks), w.Len())
		}
		ok := make(map[string]int, w.Len())
		for _, rec := range res.Records {
			if rec.Success {
				ok[rec.TaskID]++
			}
		}
		for _, a := range w.Activations() {
			if ok[a.ID] != 1 {
				r.fail(now, "success-count", "activation %s has %d successful records, want 1", a.ID, ok[a.ID])
			}
		}
	}

	// Makespan is the latest record finish.
	var maxFinish float64
	for _, rec := range res.Records {
		if rec.FinishAt > maxFinish {
			maxFinish = rec.FinishAt
		}
	}
	if res.Makespan != maxFinish {
		r.fail(now, "makespan", "Makespan %v != max record finish %v", res.Makespan, maxFinish)
	}

	// Conservation between Records and PerVM aggregates.
	type agg struct {
		n          int
		exec, wait float64
	}
	perVM := make(map[int]agg, len(res.PerVM))
	for _, rec := range res.Records {
		if !rec.Success {
			continue
		}
		a := perVM[rec.VMID]
		a.n++
		a.exec += rec.ExecTime()
		a.wait += rec.QueueTime()
		perVM[rec.VMID] = a
		if _, known := res.PerVM[rec.VMID]; !known {
			r.fail(now, "stats-missing-vm", "record on vm%d but no PerVM entry", rec.VMID)
		}
	}
	for id, st := range res.PerVM {
		a := perVM[id]
		if st.N != a.n || math.Abs(st.SumExec-a.exec) > eps || math.Abs(st.SumWait-a.wait) > eps {
			r.fail(now, "stats-conservation",
				"vm%d stats (n=%d exec=%v wait=%v) disagree with records (n=%d exec=%v wait=%v)",
				id, st.N, st.SumExec, st.SumWait, a.n, a.exec, a.wait)
		}
		if math.Abs(st.Busy-a.exec) > eps {
			r.fail(now, "busy-conservation", "vm%d busy %v != successful exec sum %v", id, st.Busy, a.exec)
		}
	}

	// Cost and BusyCost consistency.
	if base := r.env.Fleet().Cost(res.Makespan); res.Cost != base {
		r.fail(now, "cost", "Cost %v != fleet cost %v", res.Cost, base)
	}
	var busyCost float64
	for _, v := range r.env.VMStates() {
		busyCost += v.Stats().Busy * v.VM.Type.PricePerHour / (3600 * float64(v.Slots))
	}
	if math.Abs(res.BusyCost-busyCost) > eps {
		r.fail(now, "busy-cost", "BusyCost %v != recomputed %v", res.BusyCost, busyCost)
	}
}
