package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesProgram: every workload and metric BENCHMARK.json
// names is one the program has, with the same unit and a legal name.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, doc []struct{ Name, Unit string }, defs []metricDef) {
		if len(doc) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(doc), len(defs))
		}
		for i, m := range doc {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), program has %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if !legal.MatchString(m.Name) {
				t.Errorf("%s: illegal metric name %q", kind, m.Name)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

// output is one invocation's parsed standard output.
type output struct {
	text string
	last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	digest string
}

func invoke(t *testing.T, args ...string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	out := output{text: stdout.String()}
	lines := strings.Split(strings.TrimSpace(out.text), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.last); err != nil {
		t.Fatalf("bench %v: last line is not the result object: %v\n%s", args, err, out.text)
	}
	if m := regexp.MustCompile(`digest ([0-9a-f]+)`).FindStringSubmatch(out.text); m != nil {
		out.digest = m[1]
	}
	if !strings.Contains(out.text, "env: go=") || !strings.Contains(out.text, "measured=") {
		t.Errorf("bench %v: output carries no environment stamp or job counts\n%s", args, out.text)
	}
	return out
}

// printedOnce checks that each metric is printed by name exactly once
// and is exactly the set in the result object.
func (o output) printedOnce(t *testing.T, args []string, defs []metricDef) {
	t.Helper()
	if !o.last.Correct || o.last.Failed != 0 || o.last.Attempted < 1 {
		t.Errorf("bench %v: correct=%v attempted=%d failed=%d", args, o.last.Correct, o.last.Attempted, o.last.Failed)
	}
	if len(o.last.Metrics) != len(defs) {
		t.Errorf("bench %v: result object has %d metrics, want %d", args, len(o.last.Metrics), len(defs))
	}
	for _, d := range defs {
		n := len(regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(d.name)+` `).FindAllString(o.text, -1))
		if m, ok := o.last.Metrics[d.name]; n != 1 || !ok || m.Unit != d.unit {
			t.Errorf("bench %v: metric %s printed %d times, in result object: %v (unit %q, want %q)", args, d.name, n, ok, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload at a hundredth of its size, end to end
// (all seven metrics, zero failures) and traced (all per-layer
// metrics, a span file), and checks that what must be bit-identical
// between two runs of one commit is.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			args := []string{"--workload", w.name, "--seed", "3", "-scale", "0.01", "--trace", "0"}
			e2e := invoke(t, args...)
			e2e.printedOnce(t, args, endToEnd)
			for _, m := range endToEnd {
				if e2e.last.Metrics[m.name].Value == 0 {
					t.Errorf("%s is 0", m.name)
				}
			}

			// The traced pass issues the same jobs, so it is the second
			// run: its digest — every job's makespan ratio, cache-hit flag,
			// episode count and plan — must equal the first's.
			dir := t.TempDir()
			args = []string{"--workload", w.name, "--seed", "3", "-scale", "0.01", "--trace", "1", "-out", dir}
			tr := invoke(t, args...)
			if e2e.digest == "" || e2e.digest != tr.digest {
				t.Errorf("digests differ between two runs: %q, %q", e2e.digest, tr.digest)
			}
			if e2e.last.Attempted < tr.last.Attempted {
				t.Errorf("job counts: %d end to end (three set-ups), %d traced (one)", e2e.last.Attempted, tr.last.Attempted)
			}
			tr.printedOnce(t, args, perLayer)
			if w.name == "svc-warm" {
				if hit := tr.last.Metrics["schedd.cache_hit_share"].Value; hit != 1 {
					t.Errorf("cache_hit_share = %v on svc-warm, want every measured job a hit", hit)
				}
			}
			var file struct {
				Workload string
				Spans    []span
			}
			raw, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &file); err != nil || file.Workload != w.name || len(file.Spans) == 0 {
				t.Errorf("span file: err=%v workload=%q spans=%d", err, file.Workload, len(file.Spans))
			}
			byID := map[int]span{}
			for _, s := range file.Spans {
				byID[s.ID] = s
			}
			for _, s := range file.Spans {
				if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || p.Job != s.Job) {
					t.Fatalf("span %d (%s) names parent %d, which is missing or another job's", s.ID, s.Name, s.Parent)
				}
				if s.EndUS < s.StartUS {
					t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
			}
		})
	}
}

// TestMirrorMatchesDaemon holds the mirror's call order to what schedd
// exposes: for the same request sequence, the cache-hit flag, the
// episode count and the plan are those the HTTP path returned.
func TestMirrorMatchesDaemon(t *testing.T) {
	for _, w := range workloads {
		if w.svc == nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			n := 3 * structures // every structure cold once, then warm twice
			if w.name == "svc-cold-large" {
				n = structures / 2 // a tenth of a second each, and no cache to follow
			}
			s, err := w.svc.start(5)
			if err != nil {
				t.Fatal(err)
			}
			defer s.stop()
			recs, _ := s.drive(0, n, nil)
			mir := newMirror(nil)
			var body []byte
			for i, r := range recs {
				if r.err != "" {
					t.Fatal(r.err)
				}
				body = s.sts[i%structures].body(body, s.jobSeed(i))
				got, err := mir.job(fmt.Sprint("m", i), body)
				if err != nil {
					t.Fatal(err)
				}
				want := mirrorJob{cacheHit: r.cacheHit, episodes: r.episodes, planHash: r.planHash}
				if got != want {
					t.Errorf("job %d: mirror %+v, daemon %+v", i, got, want)
				}
			}
		})
	}
}

func TestTraceFlagForms(t *testing.T) {
	for _, tc := range []struct {
		in   []string
		want string
	}{
		{[]string{"--trace", "1", "--seed", "2"}, "--trace=1 --seed 2"},
		{[]string{"-trace", "0"}, "-trace=0"},
		{[]string{"-trace"}, "-trace"},
		{[]string{"-trace", "-seed", "2"}, "-trace -seed 2"},
	} {
		if got := strings.Join(joinTraceValue(tc.in), " "); got != tc.want {
			t.Errorf("joinTraceValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
