package report

import (
	"strings"
	"testing"

	"reassign/internal/metrics"
)

func TestHTMLStructure(t *testing.T) {
	b := New("Reproduction run")
	b.AddHeading("Table I")
	b.AddParagraph("The fleets <are> here.")
	tab := metrics.NewTable("Fleets", "vms", "vcpus")
	tab.AddRowF(9, 16)
	tab.AddRowF(11, 32)
	b.AddTable(tab)
	b.AddSVG(`<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"></svg>`)

	out := b.HTML()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<title>Reproduction run</title>",
		"<h2>Table I</h2>",
		"The fleets &lt;are&gt; here.",
		"<th>vms</th>",
		"<td>11</td>",
		`<svg xmlns=`,
		"</html>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// The raw paragraph markup must be escaped, not interpreted.
	if strings.Contains(out, "<are>") {
		t.Fatal("paragraph not escaped")
	}
}

func TestTableRowsComplete(t *testing.T) {
	tab := metrics.NewTable("t", "a", "b", "c")
	tab.AddRow("1", "2", "3")
	tab.AddRow("4", "5", "6")
	b := New("r")
	b.AddTable(tab)
	out := b.HTML()
	if got := strings.Count(out, "<tr>"); got != 3 { // header + 2 rows
		t.Fatalf("rows = %d, want 3", got)
	}
	if got := strings.Count(out, "<td>"); got != 6 {
		t.Fatalf("cells = %d, want 6", got)
	}
}

func TestEmptyReportStillValid(t *testing.T) {
	out := New("empty").HTML()
	if !strings.Contains(out, "<h1>empty</h1>") || !strings.Contains(out, "</html>") {
		t.Fatal("empty report malformed")
	}
}
