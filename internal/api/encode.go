package api

import (
	"strconv"
	"time"

	"reassign/internal/api/jsonwrite"
	"reassign/internal/core"
	"reassign/internal/provenance"
)

// A status writes itself through jsonwrite with no reflection, into
// the bytes json.NewEncoder(w).Encode writes for it: the fields in
// declaration order under their JSON names, omitempty fields left out
// at their zero value.

// PlanEntries is a plan's assignments in activation-ID order, as
// core.Plan holds them.
type PlanEntries interface {
	Len() int
	At(i int) core.PlanEntry
}

// Records is a run's provenance records in the order they were
// recorded.
type Records interface {
	Len() int
	At(i int) provenance.Execution
}

// executions is JobStatus.Provenance as Records.
type executions []provenance.Execution

func (x *executions) Len() int                      { return len(*x) }
func (x *executions) At(i int) provenance.Execution { return (*x)[i] }

// encoder appends one document, keeping the first error: a NaN or an
// infinity, which JSON cannot carry.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }
func (e *encoder) str(s string) { e.b = jsonwrite.AppendString(e.b, s) }
func (e *encoder) int(i int)    { e.b = strconv.AppendInt(e.b, int64(i), 10) }
func (e *encoder) bool(v bool)  { e.b = strconv.AppendBool(e.b, v) }
func (e *encoder) float(f float64) {
	var err error
	if e.b, err = jsonwrite.AppendFloat(e.b, f); err != nil && e.err == nil {
		e.err = err
	}
}

// AppendJSON appends s as json.NewEncoder(w).Encode(s) writes it,
// newline included. A NaN or an infinity in s is an error, as it is
// Encode's.
func (s *JobStatus) AppendJSON(dst []byte) ([]byte, error) {
	return s.AppendJSONFrom(dst, nil, nil)
}

// AppendJSONFrom is AppendJSON with a status's bulk taken from a form
// of the caller's own: when s.Plan is set and plan is not nil, the
// plan document's entries are plan's, not s.Plan.Plan's, and when prov
// is not nil, the provenance records are prov's, not s.Provenance. A
// caller keeping either compact writes it without building the wire
// types.
func (s *JobStatus) AppendJSONFrom(dst []byte, plan PlanEntries, prov Records) ([]byte, error) {
	e := encoder{b: dst}
	e.status(s, plan, prov)
	e.raw("\n")
	return e.b, e.err
}

// AppendJSONList appends list as json.NewEncoder(w).Encode(list)
// writes it, newline included: the job list's form.
func AppendJSONList(dst []byte, list []*JobStatus) ([]byte, error) {
	e := encoder{b: dst}
	e.raw("[")
	for i, s := range list {
		if i > 0 {
			e.raw(",")
		}
		if s == nil {
			e.raw("null")
			continue
		}
		e.status(s, nil, nil)
	}
	e.raw("]\n")
	return e.b, e.err
}

func (e *encoder) status(s *JobStatus, plan PlanEntries, prov Records) {
	e.raw(`{"schema_version":`)
	e.str(s.SchemaVersion)
	e.raw(`,"id":`)
	e.str(s.ID)
	e.raw(`,"state":`)
	e.str(s.State)
	e.optStr(`,"workflow":`, s.Workflow)
	e.optInt(`,"activations":`, s.Activations)
	e.optStr(`,"fleet":`, s.Fleet)
	e.optInt(`,"vms":`, s.VMs)
	e.optStr(`,"tenant":`, s.Tenant)
	e.optFloat(`,"deadline_seconds":`, s.DeadlineSeconds)
	e.optBool(`,"deadline_missed":`, s.DeadlineMissed)
	e.optStr(`,"submitted_at":`, s.SubmittedAt)
	e.optStr(`,"started_at":`, s.StartedAt)
	e.optStr(`,"finished_at":`, s.FinishedAt)
	e.optFloat(`,"latency_seconds":`, s.LatencySeconds)
	e.optInt(`,"episodes":`, s.Episodes)
	e.optBool(`,"cache_hit":`, s.CacheHit)
	e.optFloat(`,"learning_seconds":`, s.LearningSeconds)
	if s.Plan != nil {
		e.raw(`,"plan":`)
		if plan == nil {
			plan = &s.Plan.Plan // a pointer: no copy boxed per write
		}
		e.planDocument(s.Plan, plan)
	}
	if prov == nil {
		prov = (*executions)(&s.Provenance)
	}
	if n := prov.Len(); n > 0 {
		e.raw(`,"provenance":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				e.raw(",")
			}
			r := prov.At(i)
			e.execution(&r)
		}
		e.raw("]")
	}
	e.optFloat(`,"exec_makespan_seconds":`, s.ExecMakespanSeconds)
	e.optFloat(`,"market_cost_usd":`, s.MarketCostUSD)
	e.optInt(`,"preemptions":`, s.Preemptions)
	if s.Error != nil {
		e.raw(`,"error":{"code":`)
		e.str(s.Error.Code)
		e.optStr(`,"field":`, s.Error.Field)
		e.raw(`,"reason":`)
		e.str(s.Error.Reason)
		e.raw("}")
	}
	e.raw("}")
}

// planDocument writes d with entries as its plan, which core.Plan's
// MarshalJSON writes as an array, empty when the plan is.
func (e *encoder) planDocument(d *PlanDocument, entries PlanEntries) {
	e.raw(`{"schema_version":`)
	e.str(d.SchemaVersion)
	e.optStr(`,"workflow":`, d.Workflow)
	e.optStr(`,"fleet":`, d.Fleet)
	e.optFloat(`,"makespan_seconds":`, d.MakespanSeconds)
	e.raw(`,"plan":[`)
	for i, n := 0, entries.Len(); i < n; i++ {
		if i > 0 {
			e.raw(",")
		}
		pe := entries.At(i)
		e.raw(`{"activation":`)
		e.str(pe.Activation)
		e.raw(`,"vm":`)
		e.int(pe.VM)
		e.raw("}")
	}
	e.raw("]}")
}

func (e *encoder) execution(r *provenance.Execution) {
	e.raw(`{"workflow":`)
	e.str(r.WorkflowName)
	e.raw(`,"run_id":`)
	e.str(r.RunID)
	e.raw(`,"task_id":`)
	e.str(r.TaskID)
	e.raw(`,"activity":`)
	e.str(r.Activity)
	e.raw(`,"vm_id":`)
	e.int(r.VMID)
	e.raw(`,"vm_type":`)
	e.str(r.VMType)
	e.raw(`,"ready_at":`)
	e.float(r.ReadyAt)
	e.raw(`,"start_at":`)
	e.float(r.StartAt)
	e.raw(`,"finish_at":`)
	e.float(r.FinishAt)
	e.raw(`,"attempts":`)
	e.int(r.Attempts)
	e.raw(`,"success":`)
	e.bool(r.Success)
	if r.Wall != 0 {
		// Stamp's MarshalText: RFC 3339 text, whose bytes need no
		// escaping.
		e.raw(`,"wall":"`)
		e.b = r.Wall.Time().AppendFormat(e.b, time.RFC3339)
		e.raw(`"`)
	}
	e.raw("}")
}

func (e *encoder) optStr(key, s string) {
	if s != "" {
		e.raw(key)
		e.str(s)
	}
}

func (e *encoder) optInt(key string, i int) {
	if i != 0 {
		e.raw(key)
		e.int(i)
	}
}

func (e *encoder) optFloat(key string, f float64) {
	if f != 0 {
		e.raw(key)
		e.float(f)
	}
}

func (e *encoder) optBool(key string, v bool) {
	if v {
		e.raw(key)
		e.bool(v)
	}
}
