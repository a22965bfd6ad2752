package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"reassign/internal/api/jsonread"
	"reassign/internal/cloud"
	"reassign/internal/dag"
)

// PlanEntry is one assignment of a scheduling plan.
type PlanEntry struct {
	Activation string `json:"activation"`
	VM         int    `json:"vm"`
}

// Plan is a typed activation→VM scheduling plan: the output of the
// learning stage and the input of the exec master. Unlike the
// raw map it replaces, a Plan iterates in deterministic order
// (lexicographic by activation ID) and round-trips through JSON.
// It is one slice of entries, sorted and unique by activation; VM
// binary-searches it. The zero value is an empty plan.
type Plan struct {
	entries []PlanEntry // sorted by Activation, no duplicates
}

// NewPlan builds a Plan from an activation→VM map. The map is not
// retained; later mutations of m do not affect the plan.
func NewPlan(m map[string]int) Plan {
	if len(m) == 0 {
		return Plan{}
	}
	entries := make([]PlanEntry, 0, len(m))
	for id, vm := range m {
		entries = append(entries, PlanEntry{Activation: id, VM: vm})
	}
	sortEntries(entries)
	return Plan{entries: entries}
}

// NewPlanFromEntries builds a Plan around entries, which it takes over
// and sorts in place. Two entries for one activation are an error.
func NewPlanFromEntries(entries []PlanEntry) (Plan, error) {
	if len(entries) == 0 {
		return Plan{}, nil
	}
	sortEntries(entries)
	for i := 1; i < len(entries); i++ {
		if entries[i].Activation == entries[i-1].Activation {
			return Plan{}, fmt.Errorf("core: plan: duplicate activation %q", entries[i].Activation)
		}
	}
	return Plan{entries: entries}, nil
}

func sortEntries(entries []PlanEntry) {
	slices.SortFunc(entries, func(a, b PlanEntry) int { return strings.Compare(a.Activation, b.Activation) })
}

// Len returns the number of assignments.
func (p Plan) Len() int { return len(p.entries) }

// VM returns the VM ID assigned to the activation, and whether the
// plan covers it.
func (p Plan) VM(id string) (int, bool) {
	i, ok := slices.BinarySearchFunc(p.entries, id, func(e PlanEntry, id string) int {
		return strings.Compare(e.Activation, id)
	})
	if !ok {
		return 0, false
	}
	return p.entries[i].VM, true
}

// At returns the i-th assignment in activation-ID order, 0 ≤ i < Len:
// the allocation-free walk over the plan. A consumer that needs every
// activation's VM resolves each entry through the workflow's own index
// (dag.Workflow.Get) once, not the plan per activation.
func (p Plan) At(i int) PlanEntry { return p.entries[i] }

// Entries returns the assignments in deterministic order
// (lexicographic by activation ID). The slice is a copy.
func (p Plan) Entries() []PlanEntry {
	return append([]PlanEntry(nil), p.entries...)
}

// Map returns the plan as a fresh activation→VM map, for APIs that
// still consume the raw representation (e.g. sched.Plan).
func (p Plan) Map() map[string]int {
	m := make(map[string]int, len(p.entries))
	for _, e := range p.entries {
		m[e.Activation] = e.VM
	}
	return m
}

// String renders a compact summary.
func (p Plan) String() string {
	return fmt.Sprintf("plan(%d activations)", len(p.entries))
}

// PlanError is a structured plan-validation failure: the offending
// activation and VM (when the failure is entry-specific) plus a
// human-readable reason. Plan.Validate returns *PlanError so callers
// serving plans over an API can surface field-level diagnostics —
// and map validation to a client error — instead of forwarding bare
// strings (see api.FromError).
type PlanError struct {
	// Activation is the plan entry at fault ("" when the failure is
	// not entry-specific).
	Activation string
	// VM is the offending VM ID (-1 when the failure is not
	// VM-specific).
	VM int
	// Reason describes the failure.
	Reason string
}

// Error implements the error interface.
func (e *PlanError) Error() string { return "core: " + e.Reason }

// Validate checks the plan against a workflow and fleet at load time:
// every entry must reference a VM provisioned in the fleet and (when w
// is non-nil) an activation of the workflow, and every activation of
// the workflow must be covered. Catching a stale or mistyped plan
// here yields a clear error instead of a failure deep inside
// dispatch. Either argument may be nil to skip its half of the check.
// Failures are typed *PlanError.
func (p Plan) Validate(w *dag.Workflow, fleet *cloud.Fleet) error {
	if fleet != nil {
		known := make(map[int]bool, fleet.Len())
		for _, vm := range fleet.VMs {
			known[vm.ID] = true
		}
		for _, e := range p.entries {
			if !known[e.VM] {
				return &PlanError{Activation: e.Activation, VM: e.VM,
					Reason: fmt.Sprintf("plan maps %s to VM %d, absent from fleet %s (%d VMs)",
						e.Activation, e.VM, fleet.Name, fleet.Len())}
			}
		}
	}
	if w == nil {
		return nil
	}
	for _, e := range p.entries {
		if w.Get(e.Activation) == nil {
			return &PlanError{Activation: e.Activation, VM: e.VM,
				Reason: fmt.Sprintf("plan entry %s does not name an activation of workflow %s",
					e.Activation, w.Name)}
		}
	}
	// Entries are unique and each named an activation of w, so the plan
	// covers w exactly when the counts agree.
	if len(p.entries) < w.Len() {
		for _, a := range w.Activations() {
			if _, ok := p.VM(a.ID); !ok {
				return &PlanError{Activation: a.ID, VM: -1,
					Reason: fmt.Sprintf("plan misses activation %s", a.ID)}
			}
		}
	}
	return nil
}

// MarshalJSON encodes the plan as a sorted array of entries, making
// the encoding deterministic.
func (p Plan) MarshalJSON() ([]byte, error) {
	if p.entries == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(p.entries)
}

// UnmarshalJSON decodes the entry-array form written by MarshalJSON.
// Duplicate activations are an error.
func (p *Plan) UnmarshalJSON(data []byte) error {
	r := jsonread.NewReader(data)
	if err := p.ReadJSON(r); err != nil {
		return err
	}
	return r.End()
}

// ReadJSON decodes the plan at r's cursor as UnmarshalJSON decodes a
// whole document (null is the empty plan), so that a document carrying
// a plan decodes in one pass. The entries replace p's.
func (p *Plan) ReadJSON(r *jsonread.Reader) error {
	var entries []PlanEntry
	if err := jsonread.Slice(r, &entries, readPlanEntry); err != nil {
		return fmt.Errorf("core: plan: %w", err)
	}
	plan, err := NewPlanFromEntries(entries)
	if err != nil {
		return err
	}
	*p = plan
	return nil
}

var planEntryFields = []string{"activation", "vm"}

func readPlanEntry(r *jsonread.Reader, e *PlanEntry) error {
	return r.Object(func(key []byte) error {
		switch string(jsonread.Key(key, planEntryFields)) {
		case "activation":
			return r.String(&e.Activation)
		case "vm":
			return r.Int(&e.VM)
		}
		return r.Skip()
	})
}
