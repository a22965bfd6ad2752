package wfjson

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"reassign/internal/dag"
	"reassign/internal/trace"
)

const sampleDoc = `{
 "name": "tiny",
 "schemaVersion": "1.4",
 "workflow": {
  "specification": {
   "tasks": [
    {"name": "extract", "id": "t1", "parents": [], "children": ["t2"],
     "outputFiles": ["f1"]},
    {"name": "transform", "id": "t2", "parents": ["t1"], "children": [],
     "inputFiles": ["f1"]}
   ],
   "files": [{"id": "f1", "sizeInBytes": 2048}]
  },
  "execution": {
   "tasks": [
    {"id": "t1", "runtimeInSeconds": 12.5},
    {"id": "t2", "runtimeInSeconds": 30}
   ]
  }
 }
}`

func TestReadSample(t *testing.T) {
	w, err := Read(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "tiny" || w.Len() != 2 {
		t.Fatalf("name=%q len=%d", w.Name, w.Len())
	}
	t1 := w.Get("t1")
	if t1.Activity != "extract" || t1.Runtime != 12.5 {
		t.Fatalf("t1 = %+v", t1)
	}
	if !w.HasDep("t1", "t2") {
		t.Fatal("edge missing")
	}
	t2 := w.Get("t2")
	if len(t2.Inputs) != 1 || t2.Inputs[0].Size != 2048 {
		t.Fatalf("t2 inputs = %v", t2.Inputs)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"not json": "nope",
		"empty":    `{"name":"x","workflow":{}}`,
		"missing runtime": `{"name":"x","workflow":{"specification":{"tasks":[
			{"name":"a","id":"t1","parents":[],"children":[]}]},"execution":{"tasks":[]}}}`,
		"negative runtime": `{"name":"x","workflow":{"specification":{"tasks":[
			{"name":"a","id":"t1","parents":[],"children":[]}]},
			"execution":{"tasks":[{"id":"t1","runtimeInSeconds":-1}]}}}`,
		"unknown child": `{"name":"x","workflow":{"specification":{"tasks":[
			{"name":"a","id":"t1","parents":[],"children":["ghost"]}]},
			"execution":{"tasks":[{"id":"t1","runtimeInSeconds":1}]}}}`,
		"inconsistent parents": `{"name":"x","workflow":{"specification":{"tasks":[
			{"name":"a","id":"t1","parents":[],"children":[]},
			{"name":"b","id":"t2","parents":["t1"],"children":[]}]},
			"execution":{"tasks":[{"id":"t1","runtimeInSeconds":1},{"id":"t2","runtimeInSeconds":1}]}}}`,
		"trailing junk":   sampleDoc + "} not json at all {",
		"second document": sampleDoc + "\n{}",
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("case %q accepted", name)
		}
	}
}

// TestReadTrailingWhitespace: whitespace after the document is not
// data after it.
func TestReadTrailingWhitespace(t *testing.T) {
	if _, err := Read(strings.NewReader(sampleDoc + " \n\t\r\n")); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultName(t *testing.T) {
	doc := strings.Replace(sampleDoc, `"name": "tiny",`, "", 1)
	w, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "workflow" {
		t.Fatalf("name = %q", w.Name)
	}
}

func equalWorkflows(a, b *dag.Workflow) bool {
	if a.Len() != b.Len() || a.Edges() != b.Edges() {
		return false
	}
	for _, aa := range a.Activations() {
		bb := b.Get(aa.ID)
		if bb == nil || bb.Activity != aa.Activity || bb.Runtime != aa.Runtime {
			return false
		}
		if len(aa.Inputs) != len(bb.Inputs) || len(aa.Outputs) != len(bb.Outputs) {
			return false
		}
		for _, c := range aa.Children() {
			if !b.HasDep(aa.ID, c.ID) {
				return false
			}
		}
	}
	return true
}

func TestRoundTripMontage(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(1)))
	var buf bytes.Buffer
	if err := Write(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalWorkflows(w, got) {
		t.Fatal("round trip changed the workflow")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.json")
	w := trace.CyberShake(rand.New(rand.NewSource(2)), 40)
	if err := WriteFile(path, w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !equalWorkflows(w, got) {
		t.Fatal("file round trip changed the workflow")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file read")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	w := trace.Montage(rand.New(rand.NewSource(3)), 4, 2)
	var a, b bytes.Buffer
	if err := Write(&a, w); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, w); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("encoding not deterministic")
	}
	// Parents/children sorted.
	doc := Encode(w)
	for _, st := range doc.Workflow.Specification.Tasks {
		for i := 1; i < len(st.Parents); i++ {
			if st.Parents[i-1] > st.Parents[i] {
				t.Fatalf("parents unsorted: %v", st.Parents)
			}
		}
	}
}

// Property: all generated families round-trip through WfFormat.
func TestPropertyRoundTripFamilies(t *testing.T) {
	f := func(seed int64, size uint8, famIdx uint8) bool {
		fams := trace.Families()
		fam := fams[int(famIdx)%len(fams)]
		w := trace.Named(fam)(rand.New(rand.NewSource(seed)), int(size)%60+10)
		var buf bytes.Buffer
		if err := Write(&buf, w); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return equalWorkflows(w, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
