package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// PromWriter writes the Prometheus text exposition format, version
// 0.0.4: each metric family opens with its HELP and TYPE lines and is
// followed by its samples, unlabeled or carrying one label. Label
// values are escaped as the format requires (backslash, double quote
// and newline, nothing else), so any UTF-8 string is a safe label
// value. The writer keeps the first write error and skips every write
// after it.
type PromWriter struct {
	w   io.Writer
	buf []byte
	err error
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, or nil.
func (p *PromWriter) Err() error { return p.err }

// Family writes the HELP and TYPE lines that open a metric family;
// typ is "counter" or "gauge".
func (p *PromWriter) Family(name, typ, help string) {
	p.write(fmt.Appendf(p.buf[:0], "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, typ))
}

// Sample writes one sample of a family, its value in fmt's %v form:
// integers in decimal, floats in the shortest 'g' form. An empty label
// writes it unlabeled.
func (p *PromWriter) Sample(name, label, value string, v any) {
	if label == "" {
		p.write(fmt.Appendf(p.buf[:0], "%s %v\n", name, v))
		return
	}
	p.write(fmt.Appendf(p.buf[:0], "%s{%s=\"%s\"} %v\n", name, label, labelEscaper.Replace(value), v))
}

// Counter writes a family holding one unlabeled counter.
func (p *PromWriter) Counter(name, help string, v any) {
	p.Family(name, "counter", help)
	p.Sample(name, "", "", v)
}

// Gauge writes a family holding one unlabeled gauge.
func (p *PromWriter) Gauge(name, help string, v any) {
	p.Family(name, "gauge", help)
	p.Sample(name, "", "", v)
}

// Labeled writes a family with one sample per entry of values, the key
// as the label's value, keys in ascending order so the output is
// stable.
func Labeled[V any](p *PromWriter, name, typ, help, label string, values map[string]V) {
	p.Family(name, typ, help)
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.Sample(name, label, k, values[k])
	}
}

func (p *PromWriter) write(b []byte) {
	p.buf = b
	if p.err == nil {
		_, p.err = p.w.Write(b)
	}
}
