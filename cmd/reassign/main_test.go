package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dax"
	"reassign/internal/wfjson"
)

func TestLookupScheduler(t *testing.T) {
	known := []string{
		"heft", "minmin", "maxmin", "mct", "fcfs", "rr", "roundrobin",
		"random", "dataaware", "cheapfirst", "siteaware", "ga",
	}
	for _, name := range known {
		s, err := lookupScheduler(name, 1)
		if err != nil {
			t.Errorf("lookupScheduler(%q): %v", name, err)
			continue
		}
		if s == nil || s.Name() == "" {
			t.Errorf("lookupScheduler(%q) returned %v", name, s)
		}
	}
	// Case-insensitive.
	if _, err := lookupScheduler("HEFT", 1); err != nil {
		t.Errorf("upper-case name rejected: %v", err)
	}
	if _, err := lookupScheduler("nope", 1); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestLoadWorkflowDefaultAndFiles(t *testing.T) {
	w, err := loadWorkflow("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 50 {
		t.Fatalf("default workflow has %d activations", w.Len())
	}

	dir := t.TempDir()
	daxPath := filepath.Join(dir, "wf.dax")
	if err := dax.WriteFile(daxPath, w); err != nil {
		t.Fatal(err)
	}
	fromDax, err := loadWorkflow(daxPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fromDax.Len() != 50 {
		t.Fatalf("dax load has %d activations", fromDax.Len())
	}

	jsonPath := filepath.Join(dir, "wf.json")
	if err := wfjson.WriteFile(jsonPath, w); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := loadWorkflow(jsonPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON.Len() != 50 {
		t.Fatalf("json load has %d activations", fromJSON.Len())
	}

	if _, err := loadWorkflow(filepath.Join(dir, "missing.dax"), 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWritePlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.tsv")
	if err := writePlan(path, "wf", "fleet", 1, core.NewPlan(map[string]int{"b": 2, "a": 1})); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "activation\tvm" || lines[1] != "a\t1" || lines[2] != "b\t2" {
		t.Fatalf("plan file content: %v", lines)
	}
}

func TestPlanRoundTripTSVAndJSON(t *testing.T) {
	dir := t.TempDir()
	plan := core.NewPlan(map[string]int{"ID00001": 3, "ID00000": 8, "ID00002": 0})
	for _, name := range []string{"plan.tsv", "plan.json"} {
		path := filepath.Join(dir, name)
		if err := writePlan(path, "wf", "fleet", 12.5, plan); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := readPlan(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Len() != 3 {
			t.Fatalf("%s: %d entries", name, back.Len())
		}
		for _, e := range plan.Entries() {
			if vm, ok := back.VM(e.Activation); !ok || vm != e.VM {
				t.Fatalf("%s: %s → %d (ok %v), want %d", name, e.Activation, vm, ok, e.VM)
			}
		}
	}
	// JSON output is the versioned document form (package api).
	data, err := os.ReadFile(filepath.Join(dir, "plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc api.PlanDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != api.SchemaVersion || doc.Workflow != "wf" || doc.MakespanSeconds != 12.5 {
		t.Fatalf("plan.json document header: %+v", doc)
	}

	if _, err := readPlan(filepath.Join(dir, "missing.tsv")); err == nil {
		t.Fatal("missing plan accepted")
	}
}

// TestReadPlanRejectsSchemaVersion: a plan document of another schema
// version is an error naming the version, and so is a bare entry
// array, which no writer produces.
func TestReadPlanRejectsSchemaVersion(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"v9.json":    `{"schema_version":"v9","plan":[{"activation":"a","vm":0}]}`,
		"array.json": `[{"activation":"a","vm":0}]`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readPlan(path); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name == "v9.json" && !strings.Contains(err.Error(), `"v9"`) {
			t.Errorf("%s: error %q does not name the version", name, err)
		}
	}
}

// TestPlanSummaryUnknownVM: a plan that puts activations on a VM ID
// past the fleet's prints that VM's type as "?" instead of indexing
// past the fleet.
func TestPlanSummaryUnknownVM(t *testing.T) {
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	n := len(fleet.VMs)
	plan := core.NewPlan(map[string]int{"a": 0, "b": n, "c": n})
	got := planSummary(plan, fleet)
	want := fmt.Sprintf("placement: vm0(%s)=1 vm%d(?)=2", fleet.VMs[0].Type.Name, n)
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
