package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/provenance"
	"reassign/internal/trace"
)

func TestWorkflowSpecBuild(t *testing.T) {
	// Synthetic builds are deterministic per (family, nodes, seed).
	spec := WorkflowSpec{Synthetic: &SyntheticSpec{Family: "montage", Nodes: 40, Seed: 9}}
	w1, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := spec.Build()
	if w1.Len() != w2.Len() || w1.Len() == 0 {
		t.Fatalf("synthetic build not stable: %d vs %d", w1.Len(), w2.Len())
	}

	// Malformed DAX surfaces a typed 400 error naming the field.
	_, err = WorkflowSpec{Format: "dax", Source: "<not xml"}.Build()
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *api.Error, got %T: %v", err, err)
	}
	if apiErr.Field != "workflow" || apiErr.HTTPStatus() != http.StatusBadRequest {
		t.Fatalf("unexpected error %+v status %d", apiErr, apiErr.HTTPStatus())
	}

	if _, err := (WorkflowSpec{}).Build(); err == nil {
		t.Fatal("empty spec should fail")
	}
	_, err = WorkflowSpec{Format: "synthetic", Synthetic: &SyntheticSpec{Family: "nope"}}.Build()
	if !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest || apiErr.Field != "workflow" {
		t.Fatalf("unknown family: got %v, want a bad_request on workflow", err)
	}

	// Family names are case-insensitive.
	mixed, err := WorkflowSpec{Synthetic: &SyntheticSpec{Family: "CyberShake", Nodes: 30, Seed: 2}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	lower, _ := WorkflowSpec{Synthetic: &SyntheticSpec{Family: "cybershake", Nodes: 30, Seed: 2}}.Build()
	if mixed.Name != lower.Name || mixed.Len() != lower.Len() || mixed.Edges() != lower.Edges() {
		t.Fatalf("CyberShake built %s (%d, %d edges), cybershake %s (%d, %d edges)",
			mixed.Name, mixed.Len(), mixed.Edges(), lower.Name, lower.Len(), lower.Edges())
	}
}

// inlineDoc returns a format document of n independent activations.
func inlineDoc(format string, n int) string {
	var b strings.Builder
	if format == "dax" {
		b.WriteString(`<adag name="wide">`)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<job id="j%d" name="x" runtime="1"/>`, i)
		}
		b.WriteString(`</adag>`)
		return b.String()
	}
	b.WriteString(`{"name":"wide","workflow":{"specification":{"tasks":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":"j%d","name":"x"}`, i)
	}
	b.WriteString(`]},"execution":{"tasks":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":"j%d","runtimeInSeconds":1}`, i)
	}
	b.WriteString(`]}}}`)
	return b.String()
}

// TestInlineWorkflowTooLarge: an inline document over MaxSyntheticNodes
// activations is refused with the same typed 413 a synthetic spec of
// that size gets, while a small one of the same shape builds.
func TestInlineWorkflowTooLarge(t *testing.T) {
	for _, format := range []string{"dax", "wfjson"} {
		w, err := WorkflowSpec{Format: format, Source: inlineDoc(format, 3)}.Build()
		if err != nil || w.Len() != 3 {
			t.Fatalf("%s: small document: %v", format, err)
		}
		_, err = WorkflowSpec{Format: format, Source: inlineDoc(format, MaxSyntheticNodes+1)}.Build()
		var apiErr *Error
		if !errors.As(err, &apiErr) || apiErr.Code != CodeTooLarge || apiErr.Field != "workflow.source" ||
			apiErr.HTTPStatus() != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d activations: got %v, want 413 %s on workflow.source", format, MaxSyntheticNodes+1, err, CodeTooLarge)
		}
	}
}

func TestFleetSpecBuild(t *testing.T) {
	f, err := FleetSpec{}.Build() // default: table1, 16 vCPUs
	if err != nil {
		t.Fatal(err)
	}
	if f.VCPUs() != 16 {
		t.Fatalf("default fleet has %d vCPUs, want 16", f.VCPUs())
	}
	f, err = FleetSpec{Preset: "scaled", VCPUs: 64}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.VCPUs() != 64 {
		t.Fatalf("scaled fleet has %d vCPUs, want 64", f.VCPUs())
	}
	f, err = FleetSpec{Types: []VMCount{{Type: "t2.large", Count: 3}}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 3 {
		t.Fatalf("custom fleet has %d VMs, want 3", f.Len())
	}
	var apiErr *Error
	if _, err := (FleetSpec{VCPUs: 48}).Build(); !errors.As(err, &apiErr) || apiErr.Field != "fleet" {
		t.Fatalf("bad vcpus: want fleet-field error, got %v", err)
	}
	if _, err := (FleetSpec{Types: []VMCount{{Type: "m5.nope", Count: 1}}}).Build(); err == nil {
		t.Fatal("unknown type should fail")
	}
}

func TestStructureSignature(t *testing.T) {
	fleet16, _ := cloud.FleetTable1(16)
	fleet32, _ := cloud.FleetTable1(32)
	w := func(seed int64, nodes int) *SyntheticSpec {
		return &SyntheticSpec{Family: "montage", Nodes: nodes, Seed: seed}
	}
	build := func(s *SyntheticSpec) string {
		wf, err := WorkflowSpec{Synthetic: s}.Build()
		if err != nil {
			t.Fatal(err)
		}
		return StructureSignature(wf, fleet16)
	}
	if build(w(1, 50)) != build(w(1, 50)) {
		t.Fatal("equal structures must share a signature")
	}
	if build(w(1, 50)) == build(w(2, 50)) {
		t.Fatal("different runtimes must change the signature")
	}
	if build(w(1, 50)) == build(w(1, 60)) {
		t.Fatal("different sizes must change the signature")
	}
	wf, _ := WorkflowSpec{Synthetic: w(1, 50)}.Build()
	if StructureSignature(wf, fleet16) == StructureSignature(wf, fleet32) {
		t.Fatal("different fleets must change the signature")
	}

	// The signature keys the warm-start cache, so its bytes are pinned:
	// these literals were recorded before the hashing was rewritten.
	for _, tc := range []struct {
		wf    WorkflowSpec
		fleet FleetSpec
		want  string
	}{
		{WorkflowSpec{Synthetic: &SyntheticSpec{Family: "montage", Nodes: 1000, Seed: 1}},
			FleetSpec{Preset: "scaled", VCPUs: 256}, "f763f3d6c2f45038f3c026e46d700146"},
		{WorkflowSpec{Synthetic: &SyntheticSpec{Family: "cybershake", Nodes: 100, Seed: 7}},
			FleetSpec{Preset: "table1", VCPUs: 32}, "bb150c857cf49961bafbc889b063facc"},
	} {
		wf, err := tc.wf.Build()
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := tc.fleet.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := StructureSignature(wf, fleet); got != tc.want {
			t.Errorf("%s on %s: signature %s, want %s", wf.Name, fleet.Name, got, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { StructureSignature(wf, fleet) }); n > 2 {
			t.Errorf("%s on %s: %v allocs per signature, want ≤ 2", wf.Name, fleet.Name, n)
		}
	}
}

func TestPlanDocumentRoundTrip(t *testing.T) {
	w := trace.MontageN(rand.New(rand.NewSource(1)), 10)
	m := make(map[string]int)
	for i, a := range w.Activations() {
		m[a.ID] = i % 3
	}
	plan := core.NewPlan(m)
	doc := NewPlanDocument(w.Name, "table1-16vcpu", 123.5, plan)

	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back PlanDocument
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion || back.Plan.Len() != plan.Len() {
		t.Fatalf("round trip lost data: %+v", back)
	}
	// Marshal→unmarshal→marshal is byte-stable (deterministic plans).
	data2, _ := json.Marshal(&back)
	if string(data) != string(data2) {
		t.Fatalf("document encoding unstable:\n%s\n%s", data, data2)
	}

	// A legacy bare entry array no longer decodes.
	legacyArr, _ := json.Marshal(plan)
	if err := json.Unmarshal(legacyArr, &PlanDocument{}); err == nil {
		t.Fatal("legacy entry array decoded as a plan document")
	}

	// A document decodes whatever its version; the reader rejects an
	// unsupported one.
	var bad PlanDocument
	if err := json.Unmarshal([]byte(`{"schema_version":"v9","plan":[]}`), &bad); err != nil {
		t.Fatal(err)
	}
	if CheckSchemaVersion(bad.SchemaVersion) == nil {
		t.Fatal("v9 document should be rejected")
	}
}

func TestErrorMapping(t *testing.T) {
	// Plan.Validate failures carry structured field/reason and map to
	// 400, not 500.
	w := trace.MontageN(rand.New(rand.NewSource(1)), 5)
	fleet, _ := cloud.FleetTable1(16)
	m := make(map[string]int)
	for _, a := range w.Activations() {
		m[a.ID] = 999 // not in the fleet
	}
	err := core.NewPlan(m).Validate(w, fleet)
	if err == nil {
		t.Fatal("expected validation failure")
	}
	apiErr := FromError(err)
	if apiErr.Code != CodeInvalidPlan {
		t.Fatalf("code = %q, want %q", apiErr.Code, CodeInvalidPlan)
	}
	if apiErr.Field == "plan" || apiErr.Field == "" {
		t.Fatalf("field should name the offending entry, got %q", apiErr.Field)
	}
	if apiErr.HTTPStatus() != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", apiErr.HTTPStatus())
	}

	// Internal errors map to 500.
	if s := FromError(errors.New("boom")).HTTPStatus(); s != http.StatusInternalServerError {
		t.Fatalf("internal error status = %d, want 500", s)
	}
	// Typed errors pass through.
	orig := Errorf(CodeQueueFull, "", "queue full")
	if FromError(orig) != orig {
		t.Fatal("typed error should pass through")
	}
	if orig.HTTPStatus() != http.StatusTooManyRequests {
		t.Fatalf("queue_full status = %d, want 429", orig.HTTPStatus())
	}
	if CheckSchemaVersion("v1") != nil || CheckSchemaVersion("") != nil {
		t.Fatal("v1 and empty versions must be accepted")
	}
	if CheckSchemaVersion("v2") == nil {
		t.Fatal("v2 must be rejected")
	}
}

// TestDecodeFieldLists pins each reader's key list to its type's JSON
// field names: the differential fuzz targets notice a field a reader
// drops only when some input sets it.
func TestDecodeFieldLists(t *testing.T) {
	for _, c := range []struct {
		v     any
		names []string
	}{
		{SubmitRequest{}, submitFields}, {WorkflowSpec{}, workflowFields}, {SyntheticSpec{}, syntheticFields},
		{FleetSpec{}, fleetFields}, {VMCount{}, vmCountFields}, {LearnSpec{}, learnFields},
		{MarketSpec{}, marketFields}, {PlanDocument{}, planDocFields}, {JobStatus{}, statusFields},
		{provenance.Execution{}, executionFields}, {Error{}, errorFields},
	} {
		ty := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < ty.NumField(); i++ {
			name, _, _ := strings.Cut(ty.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !slices.Equal(tags, c.names) {
			t.Errorf("%v: JSON fields %v, reader's list %v", ty, tags, c.names)
		}
		for _, n := range c.names {
			if strings.ToLower(n) != n || strings.IndexFunc(n, func(r rune) bool { return r >= 0x80 }) >= 0 {
				t.Errorf("%v: field %q is not lower-case ASCII, as jsonread.Key needs", ty, n)
			}
		}
	}
}
