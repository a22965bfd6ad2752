package core

import (
	"encoding/json"
	"errors"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/dag"
)

func TestPlanBasics(t *testing.T) {
	p := NewPlan(map[string]int{"b": 2, "a": 1, "c": 0})
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if vm, ok := p.VM("b"); !ok || vm != 2 {
		t.Errorf("VM(b) = %d, %v", vm, ok)
	}
	if _, ok := p.VM("zz"); ok {
		t.Error("VM on uncovered activation reported ok")
	}
	ents := p.Entries()
	if ents[0].Activation != "a" || ents[1].Activation != "b" || ents[2].Activation != "c" {
		t.Errorf("entries not sorted: %v", ents)
	}
	// Entries returns a copy: mutating it must not corrupt the plan.
	ents[0].VM = 99
	if vm, _ := p.VM("a"); vm != 1 {
		t.Error("Entries() aliases internal storage")
	}
	m := p.Map()
	m["a"] = 42
	if vm, _ := p.VM("a"); vm != 1 {
		t.Error("Map() aliases internal storage")
	}
}

func TestPlanZeroValue(t *testing.T) {
	var p Plan
	if p.Len() != 0 {
		t.Error("zero plan not empty")
	}
	if _, ok := p.VM("x"); ok {
		t.Error("zero plan covers something")
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[]" {
		t.Errorf("zero plan marshals to %s", b)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := NewPlan(map[string]int{"mAdd_1": 3, "mProject_0": 0})
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"activation":"mAdd_1","vm":3},{"activation":"mProject_0","vm":0}]`
	if string(b) != want {
		t.Errorf("marshal = %s, want %s", b, want)
	}
	var back Plan
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round-trip lost entries: %d", back.Len())
	}
	if vm, _ := back.VM("mAdd_1"); vm != 3 {
		t.Error("round-trip corrupted assignment")
	}
}

func TestPlanJSONDuplicate(t *testing.T) {
	var p Plan
	err := json.Unmarshal([]byte(`[{"activation":"a","vm":1},{"activation":"a","vm":2}]`), &p)
	if err == nil {
		t.Fatal("duplicate activation accepted")
	}
}

func TestPlanJSONGarbage(t *testing.T) {
	// The legacy {"activation": vm} object is no longer a plan either.
	for _, in := range []string{`"nope"`, `{"a": 1, "b": 2}`} {
		var p Plan
		if err := json.Unmarshal([]byte(in), &p); err == nil {
			t.Fatalf("%s accepted", in)
		}
	}
}

func TestPlanFromEntries(t *testing.T) {
	p, err := NewPlanFromEntries([]PlanEntry{{"c", 0}, {"a", 1}, {"b", 2}})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(p); string(b) != `[{"activation":"a","vm":1},{"activation":"b","vm":2},{"activation":"c","vm":0}]` {
		t.Fatalf("entries not sorted: %s", b)
	}
	if _, err := NewPlanFromEntries([]PlanEntry{{"b", 0}, {"a", 1}, {"b", 2}}); err == nil {
		t.Fatal("duplicate activation accepted")
	}
}

// TestPlanAtAndCoverage: At walks the entries in activation-ID order,
// and Validate's count-based coverage check still names the missing
// activation.
func TestPlanAtAndCoverage(t *testing.T) {
	w := dag.New("r")
	w.MustAdd("z", "act", 1)
	w.MustAdd("a", "act", 1)
	w.MustAdd("m", "act", 1)
	fleet := cloud.MustFleet("r", []cloud.VMType{cloud.T2Micro}, []int{3})
	p := NewPlan(map[string]int{"z": 2, "a": 0, "m": 1})
	if err := p.Validate(w, fleet); err != nil {
		t.Fatal(err)
	}
	var got []PlanEntry
	for i := 0; i < p.Len(); i++ {
		got = append(got, p.At(i))
	}
	if len(got) != 3 || got[0] != (PlanEntry{"a", 0}) || got[1] != (PlanEntry{"m", 1}) || got[2] != (PlanEntry{"z", 2}) {
		t.Fatalf("At walk = %v, want a, m, z", got)
	}
	var pe *PlanError
	if err := NewPlan(map[string]int{"z": 2, "a": 0}).Validate(w, fleet); !errors.As(err, &pe) || pe.Activation != "m" {
		t.Fatalf("incomplete plan: %v, want a PlanError naming m", err)
	}
}
