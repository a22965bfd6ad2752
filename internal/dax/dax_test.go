package dax

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"reassign/internal/dag"
	"reassign/internal/trace"
)

const sampleDAX = `<?xml version="1.0" encoding="UTF-8"?>
<adag xmlns="http://pegasus.isi.edu/schema/DAX" version="2.1" name="Montage" jobCount="3">
  <job id="ID00000" namespace="Montage" name="mProjectPP" version="1.0" runtime="13.59">
    <uses file="raw_0.fits" link="input" size="4222080"/>
    <uses file="proj_0.fits" link="output" size="8400000"/>
  </job>
  <job id="ID00001" namespace="Montage" name="mProjectPP" version="1.0" runtime="11.2">
    <uses file="raw_1.fits" link="input" size="4222080"/>
    <uses file="proj_1.fits" link="output" size="8400000"/>
  </job>
  <job id="ID00002" namespace="Montage" name="mDiffFit" version="1.0" runtime="10.0">
    <uses file="proj_0.fits" link="input" size="8400000"/>
    <uses file="proj_1.fits" link="input" size="8400000"/>
    <uses file="diff.fits" link="output" size="300000"/>
  </job>
  <child ref="ID00002">
    <parent ref="ID00000"/>
    <parent ref="ID00001"/>
  </child>
</adag>
`

func TestReadSample(t *testing.T) {
	w, err := Read(strings.NewReader(sampleDAX))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "Montage" {
		t.Fatalf("name = %q", w.Name)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	diff := w.Get("ID00002")
	if diff == nil || diff.Activity != "mDiffFit" {
		t.Fatalf("ID00002 = %v", diff)
	}
	if len(diff.Parents()) != 2 {
		t.Fatalf("ID00002 parents = %d, want 2", len(diff.Parents()))
	}
	if diff.Runtime != 10.0 {
		t.Fatalf("runtime = %v", diff.Runtime)
	}
	if len(diff.Inputs) != 2 || len(diff.Outputs) != 1 {
		t.Fatalf("files: %d in, %d out", len(diff.Inputs), len(diff.Outputs))
	}
	if diff.Inputs[0].Size != 8400000 {
		t.Fatalf("input size = %d", diff.Inputs[0].Size)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":        "this is not xml",
		"bad runtime":    `<adag name="w"><job id="a" name="x" runtime="abc"/></adag>`,
		"neg runtime":    `<adag name="w"><job id="a" name="x" runtime="-3"/></adag>`,
		"no runtime":     `<adag name="w"><job id="a" name="x"/></adag>`,
		"dup id":         `<adag name="w"><job id="a" name="x" runtime="1"/><job id="a" name="x" runtime="1"/></adag>`,
		"bad link":       `<adag name="w"><job id="a" name="x" runtime="1"><uses file="f" link="sideways"/></job></adag>`,
		"bad size":       `<adag name="w"><job id="a" name="x" runtime="1"><uses file="f" link="input" size="huge"/></job></adag>`,
		"unknown parent": `<adag name="w"><job id="a" name="x" runtime="1"/><child ref="a"><parent ref="ghost"/></child></adag>`,
		"unknown child":  `<adag name="w"><job id="a" name="x" runtime="1"/><child ref="ghost"><parent ref="a"/></child></adag>`,
		"empty":          `<adag name="w"></adag>`,
		"cycle": `<adag name="w"><job id="a" name="x" runtime="1"/><job id="b" name="x" runtime="1"/>` +
			`<child ref="a"><parent ref="b"/></child><child ref="b"><parent ref="a"/></child></adag>`,
		"trailing junk":    sampleDAX + "} not json at all {",
		"second element":   sampleDAX + `<adag name="w"></adag>`,
		"unclosed comment": sampleDAX + "<!-- never closed",
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("case %q: no error", name)
		}
	}
}

// TestReadTrailingMisc: whitespace, comments and processing
// instructions after the document element are not data after it.
func TestReadTrailingMisc(t *testing.T) {
	if _, err := Read(strings.NewReader(sampleDAX + "\n<!-- generated -->\n<?pi after?>\n")); err != nil {
		t.Fatal(err)
	}
}

func TestReadDefaultsName(t *testing.T) {
	w, err := Read(strings.NewReader(`<adag><job id="a" name="x" runtime="1"/></adag>`))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "workflow" {
		t.Fatalf("name = %q, want fallback", w.Name)
	}
}

// equalWorkflows compares structure, runtimes and files.
func equalWorkflows(a, b *dag.Workflow) bool {
	if a.Len() != b.Len() || a.Edges() != b.Edges() {
		return false
	}
	for _, aa := range a.Activations() {
		bb := b.Get(aa.ID)
		if bb == nil || bb.Activity != aa.Activity {
			return false
		}
		if bb.Runtime != aa.Runtime {
			return false
		}
		if len(bb.Inputs) != len(aa.Inputs) || len(bb.Outputs) != len(aa.Outputs) {
			return false
		}
		for i := range aa.Inputs {
			if aa.Inputs[i] != bb.Inputs[i] {
				return false
			}
		}
		for i := range aa.Outputs {
			if aa.Outputs[i] != bb.Outputs[i] {
				return false
			}
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
	rng := rand.New(rand.NewSource(42))
	w := trace.Montage50(rng)
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
	dir := t.TempDir()
	path := filepath.Join(dir, "wf.dax")
	rng := rand.New(rand.NewSource(1))
	w := trace.Montage(rng, 4, 2)
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
	if _, err := ReadFile(filepath.Join(dir, "missing.dax")); err == nil {
		t.Fatal("reading a missing file succeeded")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// Property: every generated workflow family round-trips through DAX.
func TestPropertyRoundTripAllFamilies(t *testing.T) {
	f := func(seed int64, rawSize uint8) bool {
		size := int(rawSize)%80 + 10
		for _, fam := range trace.Families() {
			rng := rand.New(rand.NewSource(seed))
			w := trace.Named(fam)(rng, size)
			var buf bytes.Buffer
			if err := Write(&buf, w); err != nil {
				return false
			}
			got, err := Read(&buf)
			if err != nil {
				return false
			}
			if !equalWorkflows(w, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadMontage50(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	w := trace.Montage50(rng)
	var buf bytes.Buffer
	if err := Write(&buf, w); err != nil {
		b.Fatal(err)
	}
	doc := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}
