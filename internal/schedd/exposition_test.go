package schedd

import (
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// promLine matches one line of the text exposition format, version
// 0.0.4: a HELP line (escapes \\ and \n only), a TYPE line, or a sample
// with at most one label (escapes \\, \" and \n only). Submatch 1 is
// the label name, 2 its escaped value, 3 the sample value.
var promLine = regexp.MustCompile(`^(?:` +
	`# HELP [a-zA-Z_:][a-zA-Z0-9_:]* (?:[^\\\n]|\\[\\n])*` +
	`|# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge)` +
	`|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"\})? (\S+))$`)

var unescapeLabel = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")

// checkExposition fails the test on any line of body that is not a
// HELP, TYPE or sample line, and returns the unescaped values of every
// tenant label it carries.
func checkExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	tenants := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("not an exposition line: %q", line)
			continue
		}
		if m[3] != "" {
			if _, err := strconv.ParseFloat(m[3], 64); err != nil {
				t.Errorf("bad sample value in %q", line)
			}
		}
		if m[1] == "tenant" {
			tenants[unescapeLabel.Replace(m[2])] = true
		}
	}
	return tenants
}

// TestTenantLabelsEscaped submits tenant names a Go %q quoting would
// mangle into escapes the exposition format does not have (\t,
// \u00a0): every line of /metrics must still parse, and each label
// must unescape to the submitted name.
func TestTenantLabelsEscaped(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 2})
	names := []string{"a\tb", "x\u00a0y", `q"uo\te`, "new\nline"}
	for i, name := range names {
		req := smallJob(int64(i))
		req.Tenant = name
		st, resp := submit(t, url, req)
		if st == nil {
			t.Fatalf("submit %q rejected: HTTP %d", name, resp.StatusCode)
		}
		if done := waitDone(t, url, st.ID); done.Tenant != name {
			t.Fatalf("status tenant %q, want %q", done.Tenant, name)
		}
	}
	tenants := checkExposition(t, fetchMetrics(t, url))
	for _, name := range names {
		if !tenants[name] {
			t.Errorf("no tenant label unescapes to %q (have %v)", name, tenants)
		}
	}
}

// TestTenantLabelCap drives 300 distinct tenants through the
// queue-full rejection path: /metrics carries at most maxTenants
// tenant labels, the overflow is accounted as "other" with nothing
// lost, and a job's status still echoes the tenant it was submitted
// under.
func TestTenantLabelCap(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	var held sync.WaitGroup
	held.Add(1)
	var once sync.Once
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.testHook = func(*job) {
		once.Do(held.Done)
		<-gate
	}
	url := startTestServer(t, s)
	t.Cleanup(open)

	var first []string
	for _, name := range []string{"held", "filler"} {
		req := smallJob(1)
		req.Tenant = name
		st, resp := submit(t, url, req)
		if st == nil {
			t.Fatalf("%s submit rejected: HTTP %d", name, resp.StatusCode)
		}
		first = append(first, st.ID)
		held.Wait() // the only worker is parked; "filler" fills the queue
	}

	const distinct = 300
	for i := 0; i < distinct; i++ {
		req := smallJob(int64(i))
		req.Tenant = fmt.Sprintf("t%03d", i)
		if _, resp := submit(t, url, req); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit %d: HTTP %d, want 429", i, resp.StatusCode)
		}
	}
	open()
	for _, id := range first {
		waitDone(t, url, id)
	}
	req := smallJob(2)
	req.Tenant = "late-tenant"
	late, resp := submit(t, url, req)
	if late == nil {
		t.Fatalf("late submit rejected: HTTP %d", resp.StatusCode)
	}
	if done := waitDone(t, url, late.ID); done.Tenant != "late-tenant" {
		t.Fatalf("status tenant %q, want the submitted %q", done.Tenant, "late-tenant")
	}

	body := fetchMetrics(t, url)
	tenants := checkExposition(t, body)
	if len(tenants) > maxTenants {
		t.Fatalf("/metrics carries %d tenant labels, cap is %d", len(tenants), maxTenants)
	}
	if !tenants[otherTenant] || tenants["late-tenant"] || tenants[fmt.Sprintf("t%03d", distinct-1)] {
		t.Fatalf("overflow tenants not folded into %q", otherTenant)
	}
	sum := func(metric string) (total float64) {
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, metric+"{") {
				v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				total += v
			}
		}
		return total
	}
	if got := sum("schedd_tenant_jobs_rejected_total"); got != distinct {
		t.Fatalf("per-tenant rejections sum to %v, want %d", got, distinct)
	}
	if got := sum("schedd_tenant_jobs_completed_total"); got != 3 {
		t.Fatalf("per-tenant completions sum to %v, want 3", got)
	}
	if !strings.Contains(body, `schedd_tenant_jobs_completed_total{tenant="other"} 1`+"\n") {
		t.Fatal("the late tenant's job is not accounted as other")
	}
}
