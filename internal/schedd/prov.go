package schedd

import (
	"fmt"
	"math"

	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/provenance"
)

// A finished job is retained for status queries until MaxJobs newer
// ones evict it, so what it keeps is sized per field: pointer-free
// rows keyed to the interned workflow, rendered back into the wire
// types only when a status is encoded. The strings a record repeats —
// workflow, run, activation and activity names — are the workflow's
// and the job's own; only VM type names need a table, because market
// replacement VMs are not in the fleet.

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

// newProvTable compacts the records of run runID over w. A record that
// the rows could not reproduce exactly — another workflow or run, an
// unknown activation, a value out of a row's range — is an error, so
// rendering is lossless by construction.
func newProvTable(w *dag.Workflow, runID string, recs []provenance.Execution) (provTable, error) {
	t := provTable{rows: make([]provRow, len(recs))}
	if len(recs) > 0 {
		t.wall0 = recs[0].Wall
	}
	for i, e := range recs {
		a := w.Get(e.TaskID)
		wall := int64(e.Wall - t.wall0)
		if a == nil || e.WorkflowName != w.Name || e.RunID != runID || e.Activity != a.Activity ||
			int64(int32(e.VMID)) != int64(e.VMID) || int64(int32(wall)) != wall ||
			e.Attempts < 0 || e.Attempts > math.MaxUint16 {
			return provTable{}, fmt.Errorf("schedd: provenance record %+v does not fit a row of run %s of %s", e, runID, w.Name)
		}
		typ := -1
		for k, name := range t.types {
			if name == e.VMType {
				typ = k
				break
			}
		}
		if typ < 0 {
			if len(t.types) > math.MaxUint8 {
				return provTable{}, fmt.Errorf("schedd: run %s used more than %d VM types", runID, math.MaxUint8+1)
			}
			typ = len(t.types)
			t.types = append(t.types, e.VMType)
		}
		t.rows[i] = provRow{
			ready: e.ReadyAt, start: e.StartAt, finish: e.FinishAt,
			act: int32(a.Index), vm: int32(e.VMID), wall: int32(wall), attempts: uint16(e.Attempts),
			vmType: uint8(typ), success: e.Success,
		}
	}
	return t, nil
}

// render rebuilds the records newProvTable compacted; nil when the job
// kept none.
func (t provTable) render(w *dag.Workflow, runID string) []provenance.Execution {
	if len(t.rows) == 0 {
		return nil
	}
	out := make([]provenance.Execution, len(t.rows))
	for i, r := range t.rows {
		a := w.ByIndex(int(r.act))
		out[i] = provenance.Execution{
			WorkflowName: w.Name, RunID: runID, TaskID: a.ID, Activity: a.Activity,
			VMID: int(r.vm), VMType: t.types[r.vmType],
			ReadyAt: r.ready, StartAt: r.start, FinishAt: r.finish,
			Attempts: int(r.attempts), Success: r.success, Wall: t.wall0 + provenance.Stamp(r.wall),
		}
	}
	return out
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
