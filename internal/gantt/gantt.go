// Package gantt renders schedules as Gantt charts — an ASCII timeline
// for terminals and an SVG for reports — from simulation results. Rows
// are VMs; concurrent activations on a multi-slot VM stack within the
// row.
package gantt

import (
	"fmt"
	"html"
	"math"
	"sort"
	"strings"

	"reassign/internal/cloud"
	"reassign/internal/sim"
)

// Span is one scheduled activation on the chart.
type Span struct {
	VMID     int
	VMLabel  string
	VMSlots  int // execution slots of the VM (for utilisation)
	TaskID   string
	Activity string
	Start    float64
	End      float64
}

// Chart is a set of spans over a common time axis.
type Chart struct {
	Title string
	Spans []Span
}

// FromResult builds a chart from a simulation result.
func FromResult(res *sim.Result, fleet *cloud.Fleet) *Chart {
	c := &Chart{Title: res.Scheduler}
	for _, r := range res.Records {
		if !r.Success {
			continue
		}
		slots := 1
		if r.VMID >= 0 && r.VMID < fleet.Len() {
			slots = fleet.VMs[r.VMID].Type.VCPUs
		}
		c.Spans = append(c.Spans, Span{
			VMID:     r.VMID,
			VMLabel:  fmt.Sprintf("vm%d(%s)", r.VMID, r.VMType),
			VMSlots:  slots,
			TaskID:   r.TaskID,
			Activity: r.Activity,
			Start:    r.StartAt,
			End:      r.FinishAt,
		})
	}
	c.sortSpans()
	return c
}

func (c *Chart) sortSpans() {
	sort.Slice(c.Spans, func(i, j int) bool {
		if c.Spans[i].VMID != c.Spans[j].VMID {
			return c.Spans[i].VMID < c.Spans[j].VMID
		}
		if c.Spans[i].Start != c.Spans[j].Start {
			return c.Spans[i].Start < c.Spans[j].Start
		}
		return c.Spans[i].TaskID < c.Spans[j].TaskID
	})
}

// Makespan returns the latest span end (0 for an empty chart).
func (c *Chart) Makespan() float64 {
	var end float64
	for _, s := range c.Spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// vmRows groups spans per VM in ID order.
func (c *Chart) vmRows() ([]int, map[int][]Span, map[int]string) {
	rows := make(map[int][]Span)
	labels := make(map[int]string)
	var ids []int
	for _, s := range c.Spans {
		if _, ok := rows[s.VMID]; !ok {
			ids = append(ids, s.VMID)
			labels[s.VMID] = s.VMLabel
		}
		rows[s.VMID] = append(rows[s.VMID], s)
	}
	sort.Ints(ids)
	return ids, rows, labels
}

// ASCII renders the chart as a fixed-width text timeline: one row per
// VM, each column a time bucket, the cell showing how many
// activations overlap that bucket (' ' idle, '1'-'9', '+' for more).
func (c *Chart) ASCII(width int) string {
	if width < 10 {
		width = 10
	}
	end := c.Makespan()
	if end <= 0 || len(c.Spans) == 0 {
		return c.Title + ": (empty schedule)\n"
	}
	ids, rows, labels := c.vmRows()
	labelW := 0
	for _, id := range ids {
		if len(labels[id]) > labelW {
			labelW = len(labels[id])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — makespan %.2fs, %d activations on %d VMs\n",
		c.Title, end, len(c.Spans), len(ids))
	bucket := end / float64(width)
	for _, id := range ids {
		fmt.Fprintf(&b, "%-*s |", labelW, labels[id])
		var busy float64
		for col := 0; col < width; col++ {
			t0 := float64(col) * bucket
			t1 := t0 + bucket
			n := 0
			for _, s := range rows[id] {
				if s.Start < t1 && s.End > t0 {
					n++
				}
			}
			switch {
			case n == 0:
				b.WriteByte(' ')
			case n <= 9:
				b.WriteByte(byte('0' + n))
			default:
				b.WriteByte('+')
			}
		}
		slots := 1
		for _, s := range rows[id] {
			busy += s.End - s.Start
			if s.VMSlots > slots {
				slots = s.VMSlots
			}
		}
		fmt.Fprintf(&b, "| %5.1f%%\n", 100*busy/(end*float64(slots)))
	}
	// Time axis.
	fmt.Fprintf(&b, "%-*s |%s|\n", labelW, "", axis(width, end))
	return b.String()
}

// axis renders tick marks for the time scale.
func axis(width int, end float64) string {
	marks := []byte(strings.Repeat("-", width))
	for _, frac := range []float64{0, 0.25, 0.5, 0.75} {
		pos := int(frac * float64(width))
		if pos < width {
			marks[pos] = '+'
		}
	}
	s := string(marks)
	label := fmt.Sprintf(" 0s..%.0fs", end)
	if len(label) < width {
		s = s[:width-len(label)] + label
	}
	return s
}

// activityColor assigns a stable pastel colour per activity name.
func activityColor(activity string) string {
	h := 0
	for _, c := range activity {
		h = (h*31 + int(c)) % 360
	}
	return fmt.Sprintf("hsl(%d, 60%%, 70%%)", h)
}

// SVG renders the chart as a standalone SVG document. Each VM is a
// horizontal lane; slots within a VM stack sub-lanes greedily.
func (c *Chart) SVG() string {
	const (
		laneH   = 18.0
		labelW  = 150.0
		chartW  = 800.0
		padding = 4.0
	)
	end := c.Makespan()
	ids, rows, labels := c.vmRows()
	if end <= 0 || len(ids) == 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40">` +
			`<text x="4" y="20">empty schedule</text></svg>`
	}
	xOf := func(t float64) float64 { return labelW + t/end*chartW }

	var b strings.Builder
	y := padding
	var body strings.Builder
	for _, id := range ids {
		spans := rows[id]
		// Greedy sub-lane packing: place each span in the first
		// sub-lane whose last span ended before it starts.
		var laneEnds []float64
		lane := make([]int, len(spans))
		for i, s := range spans {
			placed := false
			for li := range laneEnds {
				if laneEnds[li] <= s.Start+1e-9 {
					lane[i] = li
					laneEnds[li] = s.End
					placed = true
					break
				}
			}
			if !placed {
				lane[i] = len(laneEnds)
				laneEnds = append(laneEnds, s.End)
			}
		}
		rowH := float64(len(laneEnds)) * laneH
		fmt.Fprintf(&body, `<text x="4" y="%.1f" font-size="12" font-family="monospace">%s</text>`+"\n",
			y+rowH/2+4, html.EscapeString(labels[id]))
		for i, s := range spans {
			x := xOf(s.Start)
			w := math.Max(1, xOf(s.End)-x)
			sy := y + float64(lane[i])*laneH
			fmt.Fprintf(&body,
				`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#333" stroke-width="0.5"><title>%s (%s) %.1f-%.1fs</title></rect>`+"\n",
				x, sy+1, w, laneH-2, activityColor(s.Activity),
				html.EscapeString(s.TaskID), html.EscapeString(s.Activity), s.Start, s.End)
		}
		y += rowH + padding
	}
	height := y + 20
	b.WriteString(fmt.Sprintf(
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" font-family="sans-serif">`+"\n",
		labelW+chartW+padding, height))
	fmt.Fprintf(&b, `<text x="4" y="%.1f" font-size="12">%s — makespan %.2fs</text>`+"\n",
		height-6, html.EscapeString(c.Title), end)
	b.WriteString(body.String())
	b.WriteString("</svg>\n")
	return b.String()
}
