package schedd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"reassign/internal/api"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/dax"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
	"reassign/internal/wfjson"
)

// inlineDoc renders a small generated workflow as an inline document
// in the given format. Different seeds give different runtimes, hence
// different bytes.
func inlineDoc(t *testing.T, format string, seed int64) string {
	t.Helper()
	w := trace.MontageN(rand.New(rand.NewSource(seed)), 20)
	var doc bytes.Buffer
	var err error
	switch format {
	case "dax":
		err = dax.Write(&doc, w)
	case "wfjson":
		err = wfjson.Write(&doc, w)
	default:
		t.Fatalf("no writer for format %q", format)
	}
	if err != nil {
		t.Fatal(err)
	}
	return doc.String()
}

// specJob is smallJob over the given workflow spec.
func specJob(spec api.WorkflowSpec, seed int64) api.SubmitRequest {
	req := smallJob(seed)
	req.Workflow = spec
	return req
}

// inlineJob is smallJob over an inline document.
func inlineJob(format, source string, seed int64) api.SubmitRequest {
	return specJob(api.WorkflowSpec{Format: format, Source: source}, seed)
}

func mustSubmit(t *testing.T, url string, req api.SubmitRequest) *api.JobStatus {
	t.Helper()
	st, resp := submit(t, url, req)
	if st == nil {
		t.Fatalf("submit rejected: HTTP %d (%+v)", resp.StatusCode, resp.Err)
	}
	return st
}

func internStats(s *Server) (hits, misses int64, entries int) {
	hits, misses = s.workflows.stats()
	return hits, misses, s.workflows.len()
}

// checkHappyJob applies TestSubmitStatusHappyPath's plan checks, plus
// TestExecuteAttachesProvenance's when the job executed: a full plan
// over exactly w's activations and one successful provenance record
// per activation.
func checkHappyJob(t *testing.T, done *api.JobStatus, w *dag.Workflow, episodes int) {
	t.Helper()
	if done.State != api.StateDone {
		t.Errorf("job %s ended %s: %+v", done.ID, done.State, done.Error)
		return
	}
	if done.Workflow != w.Name || done.Activations != w.Len() || done.VMs != 9 {
		t.Errorf("job %s metadata: %q/%d activations/%d VMs, want %q/%d/9",
			done.ID, done.Workflow, done.Activations, done.VMs, w.Name, w.Len())
	}
	if done.Plan == nil || done.Plan.Plan.Len() != w.Len() {
		t.Errorf("job %s should carry a full plan: %+v", done.ID, done.Plan)
		return
	}
	assigned := done.Plan.Plan.Map()
	for _, a := range w.Activations() {
		if _, ok := assigned[a.ID]; !ok {
			t.Errorf("job %s plan misses activation %s", done.ID, a.ID)
		}
	}
	if done.Plan.MakespanSeconds <= 0 || done.Episodes != episodes {
		t.Errorf("job %s plan makespan %v, episodes %d (want %d)",
			done.ID, done.Plan.MakespanSeconds, done.Episodes, episodes)
	}
	if done.LatencySeconds <= 0 {
		t.Errorf("job %s should report latency", done.ID)
	}
	if done.ExecMakespanSeconds == 0 {
		return // learn-only
	}
	if len(done.Provenance) != w.Len() {
		t.Errorf("job %s provenance records %d, want %d", done.ID, len(done.Provenance), w.Len())
	}
	for _, e := range done.Provenance {
		a := w.Get(e.TaskID)
		if a == nil || a.Activity != e.Activity || !e.Success || e.VMID != assigned[e.TaskID] {
			t.Errorf("job %s provenance record %+v does not match workflow/plan", done.ID, e)
		}
	}
}

// TestInternSameDocumentParsedOnce: a resubmitted inline document is
// parsed once and both jobs share one workflow.
func TestInternSameDocumentParsedOnce(t *testing.T) {
	for _, format := range []string{"dax", "wfjson"} {
		t.Run(format, func(t *testing.T) {
			s, url := newTestServer(t, Config{Workers: 2})
			doc := inlineDoc(t, format, 1)
			a := mustSubmit(t, url, inlineJob(format, doc, 1))
			b := mustSubmit(t, url, inlineJob(format, doc, 2))
			if hits, misses, entries := internStats(s); hits != 1 || misses != 1 || entries != 1 {
				t.Fatalf("intern hits=%d misses=%d entries=%d, want 1/1/1", hits, misses, entries)
			}
			ja, jb := s.lookup(a.ID), s.lookup(b.ID)
			if ja.w != jb.w {
				t.Fatal("jobs over one document hold different workflows")
			}
			for _, st := range []*api.JobStatus{a, b} {
				checkHappyJob(t, waitDone(t, url, st.ID), ja.w, 5)
			}
			// A finished job retains the plan and the shared DAG, not the
			// document it was built from.
			if ja.req.Workflow.Source != "" || jb.req.Workflow.Source != "" {
				t.Fatal("retained request still holds the source document")
			}
			if ja.req.Workflow.Format != format {
				t.Fatalf("retained request lost its format: %q", ja.req.Workflow.Format)
			}
		})
	}
}

// TestInternDistinctKeys: the key covers format and every byte of the
// source.
func TestInternDistinctKeys(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 2})

	// The same bytes under the other format must be parsed under that
	// format (and fail), not served from the entry the first format
	// stored.
	doc := inlineDoc(t, "wfjson", 1)
	first := mustSubmit(t, url, inlineJob("wfjson", doc, 1))
	if st, resp := submit(t, url, inlineJob("dax", doc, 1)); st != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wfjson bytes submitted as dax: HTTP %d, want 400", resp.StatusCode)
	}
	if hits, misses, entries := internStats(s); hits != 0 || misses != 2 || entries != 1 {
		t.Fatalf("intern hits=%d misses=%d entries=%d, want 0/2/1", hits, misses, entries)
	}

	// One byte of difference is a different workflow: here, the first
	// letter of its name.
	w := s.lookup(first.ID).w
	const nameField = `"name": "`
	at := strings.Index(doc, nameField) + len(nameField)
	renamed := doc[:at] + "X" + doc[at+1:]
	second := mustSubmit(t, url, inlineJob("wfjson", renamed, 1))
	if _, _, entries := internStats(s); entries != 2 {
		t.Fatalf("intern entries=%d after a one-byte-different document, want 2", entries)
	}
	w2 := s.lookup(second.ID).w
	if w2 == w || w2.Name != "X"+w.Name[1:] {
		t.Fatalf("one-byte-different document was served workflow %q (first document's: %q)", w2.Name, w.Name)
	}
	waitDone(t, url, first.ID)
	waitDone(t, url, second.ID)
}

// TestInternKeysEscapedSource: an inline document is keyed on its
// source as it stands in the body, still escaped. Two escapings of one
// document build equal workflows as two entries — an extra miss, never
// a wrong hit — and a body keys on its last source, wherever its format
// stands.
func TestInternKeysEscapedSource(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	doc := inlineDoc(t, "dax", 1)
	quote := func(escapeHTML bool) string {
		var b strings.Builder
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(escapeHTML)
		if err := enc.Encode(doc); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(b.String(), "\n")
	}
	html, plain := quote(true), quote(false)
	if strings.Contains(html, `<`) || !strings.Contains(plain, `<`) {
		t.Fatal("the two escapings of the document should differ in < alone")
	}
	submitted := func(workflow string) *job {
		t.Helper()
		body := `{"workflow":` + workflow + `,"learn":{"episodes":1}}`
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		answer, err := io.ReadAll(resp.Body)
		var st api.JobStatus
		if err != nil || resp.StatusCode != http.StatusAccepted || json.Unmarshal(answer, &st) != nil {
			t.Fatalf("%.60s: HTTP %d: %s (%v)", body, resp.StatusCode, answer, err)
		}
		return s.lookup(st.ID)
	}
	check := func(what string, wantHits, wantMisses int64, wantEntries int) {
		t.Helper()
		if hits, misses, entries := internStats(s); hits != wantHits || misses != wantMisses || entries != wantEntries {
			t.Fatalf("%s: intern hits=%d misses=%d entries=%d, want %d/%d/%d",
				what, hits, misses, entries, wantHits, wantMisses, wantEntries)
		}
	}

	escaped := submitted(`{"format":"dax","source":` + html + `}`)
	literal := submitted(`{"format":"dax","source":` + plain + `}`)
	check("two escapings", 0, 2, 2)
	if escaped.w == literal.w || escaped.sig != literal.sig || escaped.w.Name != literal.w.Name {
		t.Fatal("two escapings of one document should build equal workflows, interned apart")
	}
	if j := submitted(`{"source":` + html + `,"format":"dax"}`); j.w != escaped.w {
		t.Fatal("a source before its format should key as the same document")
	}
	check("source first", 1, 2, 2)
	if j := submitted(`{"format":"dax","source":"<adag/>","source":` + plain + `}`); j.w != literal.w {
		t.Fatal("a repeated source should key on its last value")
	}
	check("repeated source", 2, 2, 2)
	if j := submitted(`{"format":"dax","source":` + plain + `},"workflow":{"source":` + html + `}`); j.w != escaped.w {
		t.Fatal("a repeated workflow object should key on the last source")
	}
	check("repeated workflow", 3, 2, 2)
}

// TestInternMalformedNeverStored: a document that does not parse gets
// the typed 400 on every submission and leaves no entry behind.
func TestInternMalformedNeverStored(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	for _, spec := range []api.WorkflowSpec{
		{Format: "dax", Source: "<adag><job this is not xml"},
		{Format: "wfjson", Source: `{"workflow": {"tasks": [`},
		{Format: "dax", Source: "   "},
	} {
		for i := 0; i < 3; i++ {
			req := smallJob(1)
			req.Workflow = spec
			st, resp := submit(t, url, req)
			if st != nil || resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("malformed %s, attempt %d: HTTP %d, want 400", spec.Format, i, resp.StatusCode)
			}
			if resp.Err == nil || resp.Err.Code != api.CodeBadRequest || resp.Err.Field != "workflow" {
				t.Fatalf("malformed %s, attempt %d: error body %+v", spec.Format, i, resp.Err)
			}
		}
	}
	if hits, misses, entries := internStats(s); hits != 0 || misses != 9 || entries != 0 {
		t.Fatalf("intern hits=%d misses=%d entries=%d, want 0/9/0", hits, misses, entries)
	}
}

// TestInternPlanValidatedAgainstSharedWorkflow: a submitted plan that
// does not fit is a typed *core.PlanError 400 on the hit path too.
func TestInternPlanValidatedAgainstSharedWorkflow(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	doc := inlineDoc(t, "dax", 1)
	first := mustSubmit(t, url, inlineJob("dax", doc, 1))
	w := s.lookup(first.ID).w
	waitDone(t, url, first.ID)

	m := make(map[string]int)
	for _, a := range w.Activations() {
		m[a.ID] = 0
	}
	m[w.ByIndex(0).ID] = 999 // no such VM
	req := inlineJob("dax", doc, 1)
	req.Plan = &api.PlanDocument{SchemaVersion: api.SchemaVersion, Plan: core.NewPlan(m)}
	st, resp := submit(t, url, req)
	if st != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid plan: HTTP %d, want 400", resp.StatusCode)
	}
	if resp.Err == nil || resp.Err.Code != api.CodeInvalidPlan || !strings.Contains(resp.Err.Field, "plan.") {
		t.Fatalf("error body %+v", resp.Err)
	}

	// A plan for some other workflow does not fit either.
	delete(m, w.ByIndex(0).ID)
	m["nobody"] = 0
	req.Plan = &api.PlanDocument{SchemaVersion: api.SchemaVersion, Plan: core.NewPlan(m)}
	if st, resp := submit(t, url, req); st != nil || resp.Err == nil || resp.Err.Code != api.CodeInvalidPlan {
		t.Fatalf("foreign plan: HTTP %d, error %+v, want invalid_plan", resp.StatusCode, resp.Err)
	}
	if hits, misses, _ := internStats(s); hits != 2 || misses != 1 {
		t.Fatalf("intern hits=%d misses=%d, want 2/1: the plan checks should have run on hits", hits, misses)
	}
}

// TestInternBoundedLRU: the table holds CacheEntries workflows, evicts
// the least recently used, and a job holding an evicted workflow is
// unaffected.
func TestInternBoundedLRU(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	defer release.Do(func() { close(gate) })
	s := New(Config{Workers: 1, CacheEntries: 2})
	s.testHook = func(*job) { <-gate }
	url := startTestServer(t, s)

	docs := []string{inlineDoc(t, "dax", 1), inlineDoc(t, "dax", 2), inlineDoc(t, "dax", 3)}
	reqA := inlineJob("dax", docs[0], 1)
	reqA.Execute = true
	a := mustSubmit(t, url, reqA) // held on the gate, workflow in hand
	wA := s.lookup(a.ID).w
	b := mustSubmit(t, url, inlineJob("dax", docs[1], 1))
	mustSubmit(t, url, inlineJob("dax", docs[0], 2)) // touch A: B is now the oldest
	c := mustSubmit(t, url, inlineJob("dax", docs[2], 1))
	if hits, misses, entries := internStats(s); hits != 1 || misses != 3 || entries != 2 {
		t.Fatalf("intern hits=%d misses=%d entries=%d, want 1/3/2", hits, misses, entries)
	}
	// B went, A and C stayed.
	mustSubmit(t, url, inlineJob("dax", docs[0], 3))
	mustSubmit(t, url, inlineJob("dax", docs[2], 2))
	if hits, misses, _ := internStats(s); hits != 3 || misses != 3 {
		t.Fatalf("after re-submitting the two retained documents: hits=%d misses=%d, want 3/3", hits, misses)
	}
	b2 := mustSubmit(t, url, inlineJob("dax", docs[1], 2))
	if hits, misses, entries := internStats(s); hits != 3 || misses != 4 || entries != 2 {
		t.Fatalf("after re-submitting the evicted document: hits=%d misses=%d entries=%d, want 3/4/2", hits, misses, entries)
	}
	if s.lookup(b.ID).w == s.lookup(b2.ID).w {
		t.Fatal("evicted document was not re-parsed")
	}
	// That put evicted A, the least recently used of {A, C}. The job
	// that has held A's workflow since before any of this runs on it.
	mustSubmit(t, url, inlineJob("dax", docs[0], 4))
	if _, misses, _ := internStats(s); misses != 5 {
		t.Fatalf("misses=%d, want 5: A should have been evicted", misses)
	}
	release.Do(func() { close(gate) })
	checkHappyJob(t, waitDone(t, url, a.ID), wA, 5)
	checkHappyJob(t, waitDone(t, url, c.ID), s.lookup(c.ID).w, 5)
}

// TestInternConcurrentSubmits: 8 goroutines submit a mix of identical
// and distinct specs — inline documents and synthetic specs; learn,
// learn+execute and plan replay — and every job passes the happy-path
// checks. Under -race this is the proof that jobs only read the
// workflow they share.
func TestInternConcurrentSubmits(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	docs := []api.WorkflowSpec{
		{Format: "dax", Source: inlineDoc(t, "dax", 1)},
		{Format: "wfjson", Source: inlineDoc(t, "wfjson", 1)},
		{Format: "dax", Source: inlineDoc(t, "dax", 2)},
		{Synthetic: &api.SyntheticSpec{Nodes: 20, Seed: 1}},
		{Format: "synthetic", Synthetic: &api.SyntheticSpec{Family: "montage", Nodes: 20, Seed: 2}},
	}
	// A replayable plan per spec: HEFT over the built workflow.
	plans := make([]*api.PlanDocument, len(docs))
	for i, d := range docs {
		w, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := api.FleetSpec{}.Build()
		if err != nil {
			t.Fatal(err)
		}
		h := &sched.HEFT{}
		if _, err := sim.Run(w, fleet, h, sim.Config{}); err != nil {
			t.Fatal(err)
		}
		plans[i] = api.NewPlanDocument(w.Name, fleet.Name, 1, core.NewPlan(h.Assign()))
	}

	const goroutines, perGoroutine = 8, 4
	type submitted struct {
		id, tenant string
		episodes   int
	}
	var mu sync.Mutex
	var jobs []submitted
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				n := g*perGoroutine + i
				req := specJob(docs[n%len(docs)], int64(n))
				// Each request carries its own tenant label, so a string
				// decoded into a recycled body buffer would show.
				req.Tenant = fmt.Sprintf("tenant-%02d", n)
				episodes := 5
				switch n % 4 {
				case 1:
					req.Execute = true
				case 2:
					req.Plan, req.Execute, episodes = plans[n%len(docs)], true, 0
				}
				st, resp := submit(t, url, req)
				if st == nil {
					t.Errorf("submit %d rejected: HTTP %d (%+v)", n, resp.StatusCode, resp.Err)
					return
				}
				mu.Lock()
				jobs = append(jobs, submitted{st.ID, req.Tenant, episodes})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	shared := make(map[*dag.Workflow]bool)
	for _, sj := range jobs {
		j := s.lookup(sj.id)
		shared[j.w] = true
		done := waitDone(t, url, sj.id)
		checkHappyJob(t, done, j.w, sj.episodes)
		if done.Tenant != sj.tenant {
			t.Errorf("job %s tenant %q, want %q", sj.id, done.Tenant, sj.tenant)
		}
	}
	// Racing first submissions of a spec may each build it, so the miss
	// count has a range; the table still ends with one entry per spec
	// and no job is left with anything but a built workflow.
	hits, misses, entries := internStats(s)
	if entries != len(docs) || hits+misses != goroutines*perGoroutine || misses < int64(len(docs)) {
		t.Fatalf("intern hits=%d misses=%d entries=%d over %d submissions of %d specs",
			hits, misses, entries, goroutines*perGoroutine, len(docs))
	}
	if len(shared) != int(misses) {
		t.Fatalf("%d distinct workflows in use after %d builds", len(shared), misses)
	}
}

// TestSyntheticInterned: synthetic specs are interned by their
// canonical form — the defaults Build applies filled in — so every
// spelling of one (family, nodes, seed) shares one workflow, any other
// triple gets its own, and a spec Build refuses is never stored.
func TestSyntheticInterned(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	var ids []string
	workflowOf := func(spec api.WorkflowSpec) *dag.Workflow {
		t.Helper()
		st := mustSubmit(t, url, specJob(spec, 1))
		ids = append(ids, st.ID)
		return s.lookup(st.ID).w
	}
	syn := func(format, family string, nodes int, seed int64) api.WorkflowSpec {
		return api.WorkflowSpec{Format: format, Synthetic: &api.SyntheticSpec{Family: family, Nodes: nodes, Seed: seed}}
	}

	for _, group := range [][]api.WorkflowSpec{
		{syn("", "", 20, 1), syn("", "montage", 20, 1), syn("", "MONTAGE", 20, 1), syn("synthetic", "Montage", 20, 1)},
		{syn("", "montage", 0, 1), syn("synthetic", "montage", 50, 1), syn("", "", -3, 1)},
		{{Format: "synthetic"}, syn("synthetic", "", 0, 0)},
	} {
		w := workflowOf(group[0])
		for _, spec := range group[1:] {
			if got := workflowOf(spec); got != w {
				t.Errorf("%q %+v built workflow %p, not %q %+v's %p",
					spec.Format, spec.Synthetic, got, group[0].Format, group[0].Synthetic, w)
			}
		}
	}
	if hits, misses, entries := internStats(s); hits != 6 || misses != 3 || entries != 3 {
		t.Fatalf("intern hits=%d misses=%d entries=%d, want 6/3/3", hits, misses, entries)
	}

	w := workflowOf(syn("", "montage", 20, 1))
	if workflowOf(syn("", "montage", 20, 2)) == w || workflowOf(syn("", "montage", 21, 1)) == w ||
		workflowOf(syn("", "cybershake", 20, 1)) == w {
		t.Fatal("a different seed, node count or family shares a workflow")
	}
	if _, _, entries := internStats(s); entries != 6 {
		t.Fatalf("intern entries=%d, want 6", entries)
	}

	for _, tc := range []struct {
		spec   api.WorkflowSpec
		status int
		code   string
		field  string
	}{
		{syn("", "montage", api.MaxSyntheticNodes+1, 1), http.StatusRequestEntityTooLarge, api.CodeTooLarge, "workflow.synthetic.nodes"},
		{syn("synthetic", "nope", 20, 1), http.StatusBadRequest, api.CodeBadRequest, "workflow"},
	} {
		for i := 0; i < 2; i++ {
			st, resp := submit(t, url, specJob(tc.spec, 1))
			if st != nil || resp.StatusCode != tc.status || resp.Err == nil ||
				resp.Err.Code != tc.code || resp.Err.Field != tc.field {
				t.Fatalf("%+v, attempt %d: HTTP %d %+v, want %d %s on %s",
					tc.spec.Synthetic, i, resp.StatusCode, resp.Err, tc.status, tc.code, tc.field)
			}
		}
	}
	if _, misses, entries := internStats(s); misses != 10 || entries != 6 {
		t.Fatalf("intern misses=%d entries=%d after refused specs, want 10/6", misses, entries)
	}
	for _, id := range ids {
		if done := waitDone(t, url, id); done.State != api.StateDone {
			t.Errorf("job %s ended %s: %+v", id, done.State, done.Error)
		}
	}
}

func TestInternMetrics(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	doc := inlineDoc(t, "dax", 1)
	for seed := int64(1); seed <= 3; seed++ {
		waitDone(t, url, mustSubmit(t, url, inlineJob("dax", doc, seed)).ID)
	}
	// A synthetic spec counts the same way: one miss, then one hit.
	for seed := int64(1); seed <= 2; seed++ {
		waitDone(t, url, mustSubmit(t, url, smallJob(seed)).ID)
	}
	body := fetchMetrics(t, url)
	for _, want := range []string{
		"schedd_workflow_intern_hits_total 3",
		"schedd_workflow_intern_misses_total 2",
		"schedd_workflow_intern_entries 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// postRaw submits a hand-written body, optionally without a
// Content-Length (chunked), and returns the HTTP status and error code.
func postRaw(t *testing.T, url string, body []byte, chunked bool) (int, string) {
	t.Helper()
	var r io.Reader = bytes.NewReader(body)
	if chunked {
		r = io.MultiReader(r) // hides Len(): the client cannot set Content-Length
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", r)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		return resp.StatusCode, ""
	}
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("decoding error body (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, apiErr.Code
}

// TestSubmitBodyRead pins the buffered body read: a body is one JSON
// value and nothing else, with or without a Content-Length, and the
// size cap still answers 413.
func TestSubmitBodyRead(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 4096})
	good, err := json.Marshal(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	big := []byte(`{"pad":"` + strings.Repeat("x", 8192) + `"}`)
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"valid", good, http.StatusAccepted, ""},
		{"trailing whitespace", append(append([]byte{}, good...), " \n"...), http.StatusAccepted, ""},
		{"trailing junk", append(append([]byte{}, good...), " junk"...), http.StatusBadRequest, api.CodeBadRequest},
		{"second value", append(append([]byte{}, good...), good...), http.StatusBadRequest, api.CodeBadRequest},
		{"truncated", good[:len(good)/2], http.StatusBadRequest, api.CodeBadRequest},
		{"empty", nil, http.StatusBadRequest, api.CodeBadRequest},
		{"oversized", big, http.StatusRequestEntityTooLarge, api.CodeTooLarge},
	} {
		for _, chunked := range []bool{false, true} {
			status, code := postRaw(t, url, tc.body, chunked)
			if status != tc.status || code != tc.code {
				t.Errorf("%s (chunked=%v): HTTP %d code %q, want %d %q",
					tc.name, chunked, status, code, tc.status, tc.code)
			}
		}
	}

	// Past maxPooledBody the buffer is not pre-sized from Content-Length
	// but grows as the bytes arrive; the request is served the same.
	_, url = newTestServer(t, Config{Workers: 1})
	padded := append(bytes.Repeat([]byte{' '}, maxPooledBody+maxPooledBody/2), good...)
	for _, chunked := range []bool{false, true} {
		if status, code := postRaw(t, url, padded, chunked); status != http.StatusAccepted {
			t.Errorf("body past maxPooledBody (chunked=%v): HTTP %d code %q, want 202", chunked, status, code)
		}
	}
}
