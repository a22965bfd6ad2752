package gantt

import (
	"encoding/xml"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"reassign/internal/cloud"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

func chartFromSim(t testing.TB, seed int64) (*Chart, *sim.Result) {
	rng := rand.New(rand.NewSource(seed))
	w := trace.Montage(rng, 6, 3)
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(w, fleet, &sched.HEFT{}, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return FromResult(res, fleet), res
}

func TestFromResult(t *testing.T) {
	c, res := chartFromSim(t, 1)
	if len(c.Spans) != len(res.Records) {
		t.Fatalf("spans = %d, records = %d", len(c.Spans), len(res.Records))
	}
	if c.Makespan() != res.Makespan {
		t.Fatalf("chart makespan %v, sim %v", c.Makespan(), res.Makespan)
	}
	// Spans sorted by VM then start.
	for i := 1; i < len(c.Spans); i++ {
		a, b := c.Spans[i-1], c.Spans[i]
		if a.VMID > b.VMID || (a.VMID == b.VMID && a.Start > b.Start) {
			t.Fatalf("spans unsorted at %d", i)
		}
	}
}

func TestASCIIShape(t *testing.T) {
	c, _ := chartFromSim(t, 2)
	out := c.ASCII(60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + one line per used VM + axis.
	usedVMs := map[int]bool{}
	for _, s := range c.Spans {
		usedVMs[s.VMID] = true
	}
	if len(lines) != 1+len(usedVMs)+1 {
		t.Fatalf("lines = %d, want %d:\n%s", len(lines), 2+len(usedVMs), out)
	}
	if !strings.Contains(lines[0], "makespan") {
		t.Fatalf("header = %q", lines[0])
	}
	// Utilisation percentages present and bounded.
	for _, l := range lines[1 : len(lines)-1] {
		if !strings.Contains(l, "%") {
			t.Fatalf("row without utilisation: %q", l)
		}
	}
}

func TestASCIIEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	if !strings.Contains(c.ASCII(40), "empty schedule") {
		t.Fatal("empty chart not flagged")
	}
}

func TestASCIIMinWidthClamped(t *testing.T) {
	c, _ := chartFromSim(t, 3)
	out := c.ASCII(1) // clamps to 10
	if len(out) == 0 {
		t.Fatal("no output")
	}
}

func TestSVGWellFormed(t *testing.T) {
	c, _ := chartFromSim(t, 4)
	svg := c.SVG()
	if !strings.HasPrefix(svg, "<svg") {
		t.Fatalf("not an svg: %q", svg[:40])
	}
	// Must parse as XML.
	dec := xml.NewDecoder(strings.NewReader(svg))
	rects := 0
	for {
		tok, err := dec.Token()
		if tok == nil {
			break
		}
		if err != nil {
			t.Fatalf("svg not well-formed: %v", err)
		}
		if se, ok := tok.(xml.StartElement); ok && se.Name.Local == "rect" {
			rects++
		}
	}
	if rects != len(c.Spans) {
		t.Fatalf("svg has %d rects, want %d", rects, len(c.Spans))
	}
}

func TestSVGEmpty(t *testing.T) {
	svg := (&Chart{}).SVG()
	if !strings.Contains(svg, "empty schedule") {
		t.Fatal("empty chart not flagged")
	}
	if err := xml.Unmarshal([]byte(svg), new(any)); err != nil {
		t.Fatalf("empty svg not well-formed: %v", err)
	}
}

func TestActivityColorStable(t *testing.T) {
	a, b := activityColor("mProjectPP"), activityColor("mProjectPP")
	if a != b {
		t.Fatal("colour not stable")
	}
	if !strings.HasPrefix(a, "hsl(") {
		t.Fatalf("colour = %q", a)
	}
}

// Property: for any simulated schedule, ASCII output has bounded line
// lengths and the SVG stays well-formed XML.
func TestPropertyRendersValid(t *testing.T) {
	f := func(seed int64, widthRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := trace.MontageN(rng, 25)
		fleet, err := cloud.FleetTable1(16)
		if err != nil {
			return false
		}
		res, err := sim.Run(w, fleet, &sched.FCFS{}, sim.Config{Seed: seed})
		if err != nil {
			return false
		}
		c := FromResult(res, fleet)
		width := int(widthRaw)%100 + 10
		out := c.ASCII(width)
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			if len(line) > width+40 {
				return false
			}
		}
		dec := xml.NewDecoder(strings.NewReader(c.SVG()))
		for {
			tok, err := dec.Token()
			if tok == nil {
				break
			}
			if err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
