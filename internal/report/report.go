// Package report assembles self-contained HTML reports from the
// harness's artefacts — result tables, Gantt charts and learning
// curves — so one file carries a full reproduction run. Only inline
// SVG and a small embedded stylesheet are used; the output opens
// anywhere.
package report

import (
	"fmt"
	"html"
	"strings"
	"time"

	"reassign/internal/metrics"
)

// Builder accumulates sections in order.
type Builder struct {
	Title    string
	sections []string
}

// New returns an empty report with the given title.
func New(title string) *Builder {
	return &Builder{Title: title}
}

// AddHeading starts a new top-level section.
func (b *Builder) AddHeading(text string) {
	b.sections = append(b.sections, "<h2>"+html.EscapeString(text)+"</h2>")
}

// AddParagraph adds body text (escaped).
func (b *Builder) AddParagraph(text string) {
	b.sections = append(b.sections, "<p>"+html.EscapeString(text)+"</p>")
}

// AddTable renders a metrics table as an HTML table.
func (b *Builder) AddTable(t *metrics.Table) {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("<h3>" + html.EscapeString(t.Title) + "</h3>\n")
	}
	sb.WriteString("<table>\n<thead><tr>")
	for _, h := range t.Headers {
		sb.WriteString("<th>" + html.EscapeString(h) + "</th>")
	}
	sb.WriteString("</tr></thead>\n<tbody>\n")
	for _, line := range strings.Split(strings.TrimSpace(t.TSV()), "\n")[1:] {
		sb.WriteString("<tr>")
		for _, c := range strings.Split(line, "\t") {
			sb.WriteString("<td>" + html.EscapeString(c) + "</td>")
		}
		sb.WriteString("</tr>\n")
	}
	sb.WriteString("</tbody>\n</table>\n")
	b.sections = append(b.sections, sb.String())
}

// AddSVG embeds a chart inline. The SVG is trusted (produced by our
// own gantt/plot packages) and inserted verbatim.
func (b *Builder) AddSVG(svg string) {
	b.sections = append(b.sections, `<div class="figure">`+svg+`</div>`)
}

const style = `
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #222; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: .3rem; }
h2 { margin-top: 2rem; border-bottom: 1px solid #ccc; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .9rem; }
th, td { border: 1px solid #bbb; padding: .25rem .6rem; text-align: left; }
th { background: #f0f4f8; }
tr:nth-child(even) td { background: #fafafa; }
.figure { margin: 1rem 0; overflow-x: auto; }
footer { margin-top: 3rem; color: #888; font-size: .8rem; }
`

// HTML renders the complete document.
func (b *Builder) HTML() string {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	sb.WriteString("<title>" + html.EscapeString(b.Title) + "</title>\n")
	sb.WriteString("<style>" + style + "</style>\n</head>\n<body>\n")
	sb.WriteString("<h1>" + html.EscapeString(b.Title) + "</h1>\n")
	for _, s := range b.sections {
		sb.WriteString(s)
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "<footer>generated %s</footer>\n", time.Now().UTC().Format(time.RFC3339))
	sb.WriteString("</body>\n</html>\n")
	return sb.String()
}
