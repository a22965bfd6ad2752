// Package sim is the WorkflowSim-equivalent cloud workflow simulator:
// a workflow engine that releases activations as their dependencies
// finish, a pluggable scheduler invoked whenever the workflow is in
// the paper's "available" state (≥1 ready activation and ≥1 idle VM
// slot) on a fixed fleet, and optional runtime fluctuation. The fleet
// never changes during a run, and task failures are not modelled
// here: preemption, failures and retries are modelled once, at
// execution (package exec).
//
// It runs on the deterministic discrete-event kernel in package des,
// so a given (workflow, fleet, scheduler, seed) reproduces the same
// trace bit for bit.
package sim

import (
	"fmt"
	"sort"

	"reassign/internal/cloud"
	"reassign/internal/dag"
)

// TaskState is the per-activation state machine from the paper
// (§III.A): locked → ready → running → succeeded.
type TaskState int

const (
	// Locked: waiting for at least one parent activation.
	Locked TaskState = iota
	// Ready: all dependencies satisfied, waiting to be scheduled.
	Ready
	// Running: executing on a VM.
	Running
	// Succeeded: finished.
	Succeeded
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case Locked:
		return "locked"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// WorkflowState is the paper's workflow state submitted to the Q
// function. Its fourth value, "finished with failure", cannot arise:
// the simulator injects no task failures.
type WorkflowState int

const (
	// Available: ≥1 ready activation and ≥1 idle VM slot.
	Available WorkflowState = iota
	// Unavailable: nothing can be scheduled right now.
	Unavailable
	// FinishedOK: all activations succeeded (terminal).
	FinishedOK
)

// String implements fmt.Stringer.
func (s WorkflowState) String() string {
	switch s {
	case Available:
		return "available"
	case Unavailable:
		return "unavailable"
	case FinishedOK:
		return "successfully finished"
	default:
		return fmt.Sprintf("WorkflowState(%d)", int(s))
	}
}

// Task is one activation's simulation state.
type Task struct {
	Act   *dag.Activation
	State TaskState

	// VM the task is (or was last) assigned to; nil before the first
	// assignment.
	VM *cloud.VM

	// Timestamps in virtual seconds. ReadyAt is when the task entered
	// the ready queue.
	ReadyAt  float64
	StartAt  float64
	FinishAt float64

	// Attempts counts executions: 1 once the task has started.
	Attempts int

	waitingOn int // unfinished parents
}

// QueueTime returns tf_i: how long the activation waited between
// becoming ready and starting (for its successful attempt).
func (t *Task) QueueTime() float64 { return t.StartAt - t.ReadyAt }

// ExecTime returns te_i: the wall time of the (last) execution.
func (t *Task) ExecTime() float64 { return t.FinishAt - t.StartAt }

// Record is an immutable provenance-style record of one finished
// activation, the unit the reward function consumes.
type Record struct {
	TaskID   string
	Activity string
	VMID     int
	VMType   string
	ReadyAt  float64
	StartAt  float64
	FinishAt float64
	Attempts int
	// Success reports whether the attempt finished. Every record the
	// engine writes succeeds; Verify and the readers of Result.Records
	// skip failed attempts a hand-built result may carry.
	Success bool
}

// QueueTime returns tf_i for the record.
func (r Record) QueueTime() float64 { return r.StartAt - r.ReadyAt }

// ExecTime returns te_i for the record.
func (r Record) ExecTime() float64 { return r.FinishAt - r.StartAt }

// VMStats aggregates execution history on one VM, feeding the paper's
// Eq. 4 (per-VM mean performance index).
type VMStats struct {
	N       int     // finished activations
	SumExec float64 // Σ te_i
	SumWait float64 // Σ tf_i
	Busy    float64 // total busy slot-seconds
}

// MeanExec returns the mean execution time, or 0 when empty.
func (s VMStats) MeanExec() float64 {
	if s.N == 0 {
		return 0
	}
	return s.SumExec / float64(s.N)
}

// MeanWait returns the mean queue time, or 0 when empty.
func (s VMStats) MeanWait() float64 {
	if s.N == 0 {
		return 0
	}
	return s.SumWait / float64(s.N)
}

// add folds one finished activation into the aggregate.
func (s *VMStats) add(exec, wait float64) {
	s.N++
	s.SumExec += exec
	s.SumWait += wait
	s.Busy += exec
}

// Verify checks a result against its workflow and fleet: every
// activation ran exactly once successfully (for FinishedOK results),
// no record starts before its dependencies' successful completions,
// every record names a VM of the fleet, and no VM ever exceeds its
// slot capacity. It returns nil for a consistent result. Use it in
// tests and after custom schedulers.
func (r *Result) Verify(w *dag.Workflow, fleet *cloud.Fleet) error {
	if r.State == FinishedOK {
		okCount := make(map[string]int)
		for _, rec := range r.Records {
			if rec.Success {
				okCount[rec.TaskID]++
			}
		}
		for _, a := range w.Activations() {
			if okCount[a.ID] != 1 {
				return fmt.Errorf("sim: activation %s has %d successful records, want 1", a.ID, okCount[a.ID])
			}
			if _, planned := r.Plan[a.ID]; !planned {
				return fmt.Errorf("sim: activation %s missing from plan", a.ID)
			}
		}
	}
	// Dependency order over successful records.
	finish := make(map[string]float64)
	for _, rec := range r.Records {
		if rec.Success {
			finish[rec.TaskID] = rec.FinishAt
		}
	}
	const eps = 1e-9
	for _, rec := range r.Records {
		if !rec.Success {
			continue
		}
		a := w.Get(rec.TaskID)
		if a == nil {
			return fmt.Errorf("sim: record for unknown activation %s", rec.TaskID)
		}
		for _, p := range a.Parents() {
			pf, ok := finish[p.ID]
			if !ok {
				return fmt.Errorf("sim: %s ran but parent %s never finished", rec.TaskID, p.ID)
			}
			if rec.StartAt < pf-eps {
				return fmt.Errorf("sim: %s started at %v before parent %s finished at %v",
					rec.TaskID, rec.StartAt, p.ID, pf)
			}
		}
	}
	// Slot capacity: sweep start/finish events per VM.
	type event struct {
		t     float64
		delta int
	}
	perVM := make(map[int][]event)
	for _, rec := range r.Records {
		perVM[rec.VMID] = append(perVM[rec.VMID],
			event{rec.StartAt, 1}, event{rec.FinishAt, -1})
	}
	slots := make(map[int]int)
	for _, vm := range fleet.VMs {
		slots[vm.ID] = vm.Type.VCPUs
	}
	for vmID, evs := range perVM {
		cap, known := slots[vmID]
		if !known {
			return fmt.Errorf("sim: record on vm%d, which fleet %q lacks", vmID, fleet.Name)
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].t != evs[j].t {
				return evs[i].t < evs[j].t
			}
			return evs[i].delta < evs[j].delta // finish before start at ties
		})
		busy := 0
		for _, e := range evs {
			busy += e.delta
			if busy > cap {
				return fmt.Errorf("sim: vm%d exceeded %d slots", vmID, cap)
			}
		}
	}
	return nil
}
