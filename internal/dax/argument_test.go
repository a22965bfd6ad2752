package dax

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"reassign/internal/dag"
)

const argvDAX = `<?xml version="1.0" encoding="UTF-8"?>
<adag xmlns="http://pegasus.isi.edu/schema/DAX" version="2.1" name="argv" jobCount="2">
  <job id="J1" name="mProjectPP" runtime="10">
    <argument>-X -x 0.90475 <filename file="raw_0.fits"/> <filename file="proj_0.fits"/> big_region.hdr</argument>
    <uses file="raw_0.fits" link="input" size="1"/>
    <uses file="proj_0.fits" link="output" size="1"/>
  </job>
  <job id="J2" name="mBackground" runtime="5">
    <uses file="proj_0.fits" link="input" size="1"/>
    <uses file="out.fits" link="output" size="1"/>
  </job>
  <child ref="J2"><parent ref="J1"/></child>
</adag>
`

func TestReadArgument(t *testing.T) {
	w, err := Read(strings.NewReader(argvDAX))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-X", "-x", "0.90475", "raw_0.fits", "proj_0.fits", "big_region.hdr"}
	if got := w.Get("J1").Args; !reflect.DeepEqual(got, want) {
		t.Fatalf("J1 args = %q, want %q", got, want)
	}
	if got := w.Get("J2").Args; len(got) != 0 {
		t.Fatalf("J2 args = %q, want none", got)
	}
}

func TestArgumentRoundTrip(t *testing.T) {
	w := dag.New("rt")
	a := w.MustAdd("A", "tool", 3)
	a.Args = []string{"tool", "-v", "in.dat", "out.dat"}
	w.MustAdd("B", "other", 2)

	var buf bytes.Buffer
	if err := Write(&buf, w); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Get("A").Args; !reflect.DeepEqual(got, a.Args) {
		t.Fatalf("round-tripped args = %q, want %q", got, a.Args)
	}
	if got := back.Get("B").Args; len(got) != 0 {
		t.Fatalf("B gained args %q", got)
	}
}
