package metrics

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// promLine matches one line of the text exposition format, version
// 0.0.4: a HELP line (escapes \\ and \n only), a TYPE line, or a sample
// with at most one label (escapes \\, \" and \n only).
var promLine = regexp.MustCompile(`^(?:` +
	`# HELP [a-zA-Z_:][a-zA-Z0-9_:]* (?:[^\\\n]|\\[\\n])*` +
	`|# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge)` +
	`|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="((?:[^"\\\n]|\\[\\"n])*)"\})? (\S+))$`)

var unescapeLabel = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")

// checkPromLine validates one exposition line and returns its label
// value, unescaped ("" when unlabeled or not a sample).
func checkPromLine(line string) (string, error) {
	m := promLine.FindStringSubmatch(line)
	if m == nil {
		return "", fmt.Errorf("not an exposition line: %q", line)
	}
	if m[2] != "" {
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			return "", fmt.Errorf("bad sample value in %q: %v", line, err)
		}
	}
	return unescapeLabel.Replace(m[1]), nil
}

func TestPromWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Counter("a_total", `Help with a \ backslash`, 1000000)
	p.Gauge("b", "A gauge", 1e6)
	p.Gauge("c", "An integer gauge", -3)
	Labeled(p, "d_total", "counter", "Per key", "k", map[string]int64{"z": 2, "a": 1})
	Labeled(p, "e", "gauge", "Per key", "k", map[string]float64{"x": 0.5})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total Help with a \\ backslash
# TYPE a_total counter
a_total 1000000
# HELP b A gauge
# TYPE b gauge
b 1e+06
# HELP c An integer gauge
# TYPE c gauge
c -3
# HELP d_total Per key
# TYPE d_total counter
d_total{k="a"} 1
d_total{k="z"} 2
# HELP e Per key
# TYPE e gauge
e{k="x"} 0.5
`
	if got := buf.String(); got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
	for _, line := range strings.Split(strings.TrimSuffix(want, "\n"), "\n") {
		if _, err := checkPromLine(line); err != nil {
			t.Error(err)
		}
	}
}

// TestPromLabelEscaping pins text-format escaping: only backslash,
// double quote and newline are escaped; a tab or a non-breaking space
// passes through as the raw UTF-8 it is.
func TestPromLabelEscaping(t *testing.T) {
	for in, want := range map[string]string{
		"a\tb":         "m{t=\"a\tb\"} 1\n",
		"x\u00a0y":     "m{t=\"x\u00a0y\"} 1\n",
		`q"uo\te`:      `m{t="q\"uo\\te"} 1` + "\n",
		"new\nline":    `m{t="new\nline"} 1` + "\n",
		"plain-tenant": `m{t="plain-tenant"} 1` + "\n",
	} {
		var buf bytes.Buffer
		NewPromWriter(&buf).Sample("m", "t", in, 1)
		if buf.String() != want {
			t.Errorf("label %q: wrote %q, want %q", in, buf.String(), want)
		}
		got, err := checkPromLine(strings.TrimSuffix(buf.String(), "\n"))
		if err != nil || got != in {
			t.Errorf("label %q: checker got %q, %v", in, got, err)
		}
	}
}

// failAfter accepts n writes, then fails every later one with an error
// naming its attempt.
type failAfter struct{ n, calls int }

func (f *failAfter) Write(b []byte) (int, error) {
	f.calls++
	if f.calls > f.n {
		return 0, fmt.Errorf("write %d failed", f.calls)
	}
	return len(b), nil
}

func TestPromWriterKeepsFirstError(t *testing.T) {
	w := &failAfter{n: 2}
	p := NewPromWriter(w)
	p.Counter("a", "A", 1) // two writes: the HELP and TYPE lines, then the sample
	if p.Err() != nil {
		t.Fatalf("early error %v", p.Err())
	}
	p.Counter("b", "B", 1)
	p.Gauge("c", "C", 1)
	if p.Err() == nil || p.Err().Error() != "write 3 failed" {
		t.Fatalf("error %v, want the first failure", p.Err())
	}
	if w.calls != 3 {
		t.Fatalf("%d writes attempted, want none after the first failure", w.calls)
	}
}

// FuzzPromLabel: whatever valid UTF-8 label value the writer is given,
// it emits one line the exposition checker accepts, whose label
// unescapes back to the input.
func FuzzPromLabel(f *testing.F) {
	for _, s := range []string{"", "acme", "a\tb", "x\u00a0y", `q"uo\te`, "new\nline", `\n`, `\\"`, "\r\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if !utf8.ValidString(s) {
			t.Skip()
		}
		var buf bytes.Buffer
		NewPromWriter(&buf).Sample("m_total", "tenant", s, 1.5)
		out := buf.String()
		if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
			t.Fatalf("label %q: not one line: %q", s, out)
		}
		got, err := checkPromLine(strings.TrimSuffix(out, "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("label %q round-trips to %q", s, got)
		}
	})
}
