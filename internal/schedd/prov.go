package schedd

import (
	"fmt"
	"math"
	"slices"
	"time"

	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/provenance"
)

// A finished job is retained for status queries until MaxJobs newer
// ones evict it, so what it keeps is sized per field: pointer-free
// rows keyed to the interned workflow, recorded as the exec master
// runs and written straight to the wire when a status is served. The
// strings a record repeats — workflow, run, activation and activity
// names — are the workflow's and the job's own; only VM type names
// need a table, because market replacement VMs are not in the fleet.

// provRow is one provenance.Execution of a finished job: 40 bytes.
type provRow struct {
	ready, start, finish float64
	act                  int32  // activation index in the job's workflow
	vm                   int32  // VM ID
	wall                 int32  // seconds after provTable.wall0
	attempts             uint16 // attempts made
	vmType               uint8  // index into provTable.types
	success              bool
}

// provTable is a finished job's provenance.
type provTable struct {
	rows  []provRow
	types []string         // VM type names, indexed by provRow.vmType
	wall0 provenance.Stamp // the rows' wall stamps are offsets from it
}

// provRecorder is the exec.Recorder a job's run records into: it keeps
// each execution as a row of run runID over w. A record the row could
// not reproduce exactly — another workflow or run, an unknown
// activation, a value out of a row's range — stops the recording with
// an error, which fails the job, so what is written is the record by
// construction. Attempts are not kept: the daemon serves none.
type provRecorder struct {
	w     *dag.Workflow
	runID string
	now   func() time.Time // stamps unstamped records; nil is time.Now
	t     provTable
	err   error
}

func (r *provRecorder) Grow(execs, _ int) { r.t.rows = slices.Grow(r.t.rows, execs) }

func (r *provRecorder) AddAttempt(provenance.Attempt) {}

// Add keeps e as a row, stamping it as provenance.Store.Add would.
func (r *provRecorder) Add(e provenance.Execution) {
	if r.err != nil {
		return
	}
	if e.Wall == 0 {
		now := r.now
		if now == nil {
			now = time.Now
		}
		e.Wall = provenance.StampOf(now())
	}
	if len(r.t.rows) == 0 {
		r.t.wall0 = e.Wall
	}
	a := r.w.Get(e.TaskID)
	wall := int64(e.Wall - r.t.wall0)
	if a == nil || e.WorkflowName != r.w.Name || e.RunID != r.runID || e.Activity != a.Activity ||
		int64(int32(e.VMID)) != int64(e.VMID) || int64(int32(wall)) != wall ||
		e.Attempts < 0 || e.Attempts > math.MaxUint16 {
		r.err = fmt.Errorf("schedd: provenance record %+v does not fit a row of run %s of %s", e, r.runID, r.w.Name)
		return
	}
	typ := slices.Index(r.t.types, e.VMType)
	if typ < 0 {
		if len(r.t.types) > math.MaxUint8 {
			r.err = fmt.Errorf("schedd: run %s used more than %d VM types", r.runID, math.MaxUint8+1)
			return
		}
		typ = len(r.t.types)
		r.t.types = append(r.t.types, e.VMType)
	}
	r.t.rows = append(r.t.rows, provRow{
		ready: e.ReadyAt, start: e.StartAt, finish: e.FinishAt,
		act: int32(a.Index), vm: int32(e.VMID), wall: int32(wall), attempts: uint16(e.Attempts),
		vmType: uint8(typ), success: e.Success,
	})
}

// provRecords is a job's rows as the api.Records its status writes.
type provRecords struct {
	t     *provTable
	w     *dag.Workflow
	runID string
}

func (p provRecords) Len() int { return len(p.t.rows) }

func (p provRecords) At(i int) provenance.Execution {
	r := &p.t.rows[i]
	a := p.w.ByIndex(int(r.act))
	return provenance.Execution{
		WorkflowName: p.w.Name, RunID: p.runID, TaskID: a.ID, Activity: a.Activity,
		VMID: int(r.vm), VMType: p.t.types[r.vmType],
		ReadyAt: r.ready, StartAt: r.start, FinishAt: r.finish,
		Attempts: int(r.attempts), Success: r.success, Wall: p.t.wall0 + provenance.Stamp(r.wall),
	}
}

// planEntries is a compact plan as the api.PlanEntries its status
// writes: vms[order[i]] is the i-th entry's VM, order being the
// workflow's shared activation-ID order.
type planEntries struct {
	w     *dag.Workflow
	order []int32
	vms   []int32
}

func (p planEntries) Len() int { return len(p.order) }

func (p planEntries) At(i int) core.PlanEntry {
	k := p.order[i]
	return core.PlanEntry{Activation: p.w.ByIndex(int(k)).ID, VM: int(p.vms[k])}
}

// compactPlan is a validated plan over w as one int32 VM per
// activation index. Plan.Validate checked every VM against the fleet,
// whose IDs count up from 0 and are bounded by api.MaxFleetVCPUs.
func compactPlan(w *dag.Workflow, p core.Plan) []int32 {
	vms := make([]int32, w.Len())
	for i := 0; i < p.Len(); i++ {
		e := p.At(i)
		vms[w.Get(e.Activation).Index] = int32(e.VM)
	}
	return vms
}

// expandPlan is compactPlan's inverse: the core.Plan over w's
// activation IDs.
func expandPlan(w *dag.Workflow, vms []int32) core.Plan {
	entries := make([]core.PlanEntry, len(vms))
	for i, vm := range vms {
		entries[i] = core.PlanEntry{Activation: w.ByIndex(i).ID, VM: int(vm)}
	}
	p, _ := core.NewPlanFromEntries(entries) // a workflow's activation IDs are unique
	return p
}
