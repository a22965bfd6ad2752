// Package metrics provides the descriptive statistics, duration
// formatting and plain-text table rendering the experiment harness
// uses to print the paper's tables, and the two pieces every
// /metrics-style export shares: a bounded sample Window and the
// Prometheus text writer (PromWriter).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation, or 0 for fewer
// than two values.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the minimum, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0-100) by linear
// interpolation; it returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return percentileSorted(ys, p)
}

// percentileSorted is Percentile over an ascending, non-empty slice.
func percentileSorted(ys []float64, p float64) float64 {
	if p <= 0 {
		return ys[0]
	}
	if p >= 100 {
		return ys[len(ys)-1]
	}
	rank := p / 100 * float64(len(ys)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return ys[lo]
	}
	frac := rank - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// FormatDuration renders seconds in the paper's Table IV style:
// HH:MM:SS.mmm (e.g. 189.625s → "00:03:09.625").
func FormatDuration(seconds float64) string {
	if seconds < 0 {
		return "-" + FormatDuration(-seconds)
	}
	d := time.Duration(seconds * float64(time.Second))
	h := d / time.Hour
	d -= h * time.Hour
	m := d / time.Minute
	d -= m * time.Minute
	s := d / time.Second
	d -= s * time.Second
	ms := d / time.Millisecond
	return fmt.Sprintf("%02d:%02d:%02d.%03d", h, m, s, ms)
}

// Table renders rows as a fixed-width plain-text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns an empty table with the given title and headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowF appends a row of formatted values: strings pass through,
// float64 render with 'g', ints with %d, everything else with %v.
func (t *Table) AddRowF(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.5f", v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", width[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// TSV renders the table as tab-separated values (headers first), the
// machine-readable companion of String.
func (t *Table) TSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, "\t"))
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// Summary is a five-number-plus descriptive summary of a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	P50  float64
	P95  float64
	P99  float64
}

// Summarize computes a Summary (zero value for an empty sample). Its
// three percentiles read one sorted copy of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  StdDev(xs),
		Min:  Min(xs),
		Max:  Max(xs),
		P50:  percentileSorted(ys, 50),
		P95:  percentileSorted(ys, 95),
		P99:  percentileSorted(ys, 99),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f p50=%.2f p95=%.2f max=%.2f",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P95, s.Max)
}
