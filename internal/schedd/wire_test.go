package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"reassign/internal/api"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/provenance"
)

// renderRows is the reference the rows are held to: the records they
// hold, rendered back into the wire type.
func renderRows(t *provTable, w *dag.Workflow, runID string) []provenance.Execution {
	if len(t.rows) == 0 {
		return nil
	}
	out := make([]provenance.Execution, len(t.rows))
	for i, r := range t.rows {
		a := w.ByIndex(int(r.act))
		out[i] = provenance.Execution{
			WorkflowName: w.Name, RunID: runID, TaskID: a.ID, Activity: a.Activity,
			VMID: int(r.vm), VMType: t.types[r.vmType],
			ReadyAt: r.ready, StartAt: r.start, FinishAt: r.finish,
			Attempts: int(r.attempts), Success: r.success, Wall: t.wall0 + provenance.Stamp(r.wall),
		}
	}
	return out
}

// refStatus is the reference status: the job's summary with its plan
// expanded into a core.Plan and its rows rendered into records, for
// encoding/json to encode as the daemon once served it.
func refStatus(j *job) *api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.summaryLocked()
	if j.plan != nil {
		vms := make(map[string]int, len(j.plan))
		for i, vm := range j.plan {
			vms[j.w.ByIndex(i).ID] = int(vm)
		}
		st.Plan = api.NewPlanDocument(j.w.Name, j.fleet.Name, j.planMakespan, core.NewPlan(vms))
	}
	st.Provenance = renderRows(&j.prov, j.w, j.id)
	return st
}

// encodeRef is json.NewEncoder(w).Encode's bytes for v.
func encodeRef(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkBody fails unless rec answered code with encoding/json's bytes
// for want.
func checkBody(t *testing.T, what string, rec *httptest.ResponseRecorder, code int, want any) {
	t.Helper()
	b, err := encodeRef(want)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != code || !bytes.Equal(rec.Body.Bytes(), b) {
		t.Fatalf("%s: HTTP %d\n%s\nwant HTTP %d\n%s", what, rec.Code, rec.Body, code, b)
	}
}

// serve runs one request through the daemon's handler.
func serve(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// checkCompact asserts that rec answered code with a body of one line
// that decodes to want.
func checkCompact[T any](t *testing.T, what string, rec *httptest.ResponseRecorder, code int, want T) {
	t.Helper()
	body := rec.Body.Bytes()
	if rec.Code != code {
		t.Fatalf("%s: HTTP %d, want %d: %s", what, rec.Code, code, body)
	}
	if len(body) == 0 || bytes.IndexByte(body, '\n') != len(body)-1 {
		t.Fatalf("%s: body is not one line:\n%s", what, body)
	}
	var got T
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: body decodes to\n%+v\nwant\n%+v", what, got, want)
	}
}

// TestResponsesCompact: every JSON response — submit, status, list,
// cancel, healthz and an error — is one line of compact JSON that
// decodes to the value the handler built, and the job responses are
// encoding/json's bytes for the reference status.
func TestResponsesCompact(t *testing.T) {
	s := New(Config{Workers: 1})
	submitBody := func(req api.SubmitRequest) string {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	run := smallJob(1)
	run.Execute = true
	rec := serve(s, "POST", "/v1/jobs", submitBody(run))
	j1 := s.lookup("j000001")
	if j1 == nil {
		t.Fatalf("first submission not registered: HTTP %d %s", rec.Code, rec.Body)
	}
	checkCompact(t, "submit", rec, http.StatusAccepted, refStatus(j1))
	checkBody(t, "submit", rec, http.StatusAccepted, refStatus(j1))

	rec = serve(s, "POST", "/v1/jobs", submitBody(smallJob(2)))
	j2 := s.lookup("j000002")
	if j2 == nil {
		t.Fatalf("second submission not registered: HTTP %d %s", rec.Code, rec.Body)
	}
	rec = serve(s, "POST", "/v1/jobs/j000002/cancel", "")
	checkCompact(t, "cancel", rec, http.StatusOK, refStatus(j2))
	checkBody(t, "cancel", rec, http.StatusOK, refStatus(j2))
	rec = serve(s, "GET", "/v1/jobs", "")
	checkCompact(t, "list", rec, http.StatusOK, []*api.JobStatus{j1.summary(), j2.summary()})
	checkBody(t, "list", rec, http.StatusOK, []*api.JobStatus{j1.summary(), j2.summary()})
	checkCompact(t, "healthz", serve(s, "GET", "/healthz", ""), http.StatusOK,
		map[string]any{"ok": true, "queued": 2.0, "inflight": 0.0})
	checkCompact(t, "not found", serve(s, "GET", "/v1/jobs/zzz", ""), http.StatusNotFound,
		&api.Error{Code: api.CodeNotFound, Reason: `no job "zzz"`})

	// The executed job's status carries its plan and provenance.
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(60 * time.Second); !j1.finished(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
	}
	st := refStatus(j1)
	if st.State != api.StateDone || st.Plan == nil || len(st.Provenance) == 0 {
		t.Fatalf("executed job: %+v", st)
	}
	rec = serve(s, "GET", "/v1/jobs/j000001", "")
	checkCompact(t, "status", rec, http.StatusOK, st)
	checkBody(t, "status", rec, http.StatusOK, st)
}

// TestNonFiniteStatusIsInternal: a status JSON cannot carry — here a
// NaN makespan — is a typed 500, not a 200 with an empty body.
func TestNonFiniteStatusIsInternal(t *testing.T) {
	s := New(Config{Workers: 1})
	serve(s, "POST", "/v1/jobs", `{"workflow":{"synthetic":{"nodes":20}}}`)
	j := s.lookup("j000001")
	j.mu.Lock()
	j.plan, j.planMakespan = make([]int32, j.w.Len()), math.NaN()
	j.mu.Unlock()
	rec := serve(s, "GET", "/v1/jobs/j000001", "")
	var apiErr api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || rec.Code != http.StatusInternalServerError ||
		apiErr.Code != api.CodeInternal {
		t.Fatalf("HTTP %d %s (%v), want a typed 500 %s", rec.Code, rec.Body, err, api.CodeInternal)
	}
}

// TestStatusIDOrderConcurrentFirstUse: jobs that share an interned
// workflow whose activation IDs are not in index order write their
// plans concurrently, each the first to need the workflow's ID order,
// and every body is encoding/json's bytes for the reference status.
// Run under -race (make race) it also checks the order's lazy build.
func TestStatusIDOrderConcurrentFirstUse(t *testing.T) {
	var doc strings.Builder
	doc.WriteString(`<adag name="shuffled">`)
	for _, id := range []string{"j9", "j10", "j1", "a", "B", "j02", "z"} {
		fmt.Fprintf(&doc, `<job id="%s" name="x" runtime="1"/>`, id)
	}
	doc.WriteString(`</adag>`)
	for round := 0; round < 8; round++ {
		s := New(Config{Workers: 1})
		const jobs = 6
		for i := 0; i < jobs; i++ {
			req := api.SubmitRequest{Workflow: api.WorkflowSpec{Format: "dax", Source: doc.String()}}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if rec := serve(s, "POST", "/v1/jobs", string(body)); rec.Code != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d %s", rec.Code, rec.Body)
			}
		}
		js := make([]*job, jobs)
		for i := range js {
			js[i] = s.lookup(fmt.Sprintf("j%06d", i+1))
			if js[i].w != js[0].w {
				t.Fatal("the jobs do not share one interned workflow")
			}
			js[i].mu.Lock()
			js[i].plan = make([]int32, js[i].w.Len())
			for k := range js[i].plan {
				js[i].plan[k] = int32((k + i) % 3)
			}
			js[i].mu.Unlock()
		}
		recs := make([]*httptest.ResponseRecorder, jobs)
		var wg sync.WaitGroup
		for i := range recs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[i] = serve(s, "GET", "/v1/jobs/"+js[i].id, "")
			}()
		}
		wg.Wait()
		for i, rec := range recs {
			checkBody(t, js[i].id, rec, http.StatusOK, refStatus(js[i]))
		}
	}
}

// knownCodes are the api.Error codes a 4xx answer may carry.
var knownCodes = map[string]bool{
	api.CodeBadRequest: true, api.CodeInvalidPlan: true, api.CodeNotFound: true,
	api.CodeQueueFull: true, api.CodeTooLarge: true, api.CodeConflict: true,
	api.CodeCanceled: true, api.CodeUnavailable: true, api.CodeInternal: true,
}

// FuzzSubmit drives handleSubmit with arbitrary bodies on a daemon that
// never starts its workers, so valid submissions queue until the queue
// is full and then get 429. No body may panic or draw a 5xx; a 202 is
// a queued job, and every 4xx is a typed api.Error whose code maps to
// that status.
func FuzzSubmit(f *testing.F) {
	job := smallJob(1)
	w, err := job.Workflow.Build()
	if err != nil {
		f.Fatal(err)
	}
	m := make(map[string]int)
	for _, a := range w.Activations() {
		m[a.ID] = 0
	}
	plan := core.NewPlan(m)
	entries, err := json.Marshal(plan)
	if err != nil {
		f.Fatal(err)
	}
	for _, doc := range []*api.PlanDocument{
		api.NewPlanDocument(w.Name, "table1-16vcpu", 0, plan),
		{SchemaVersion: "v9", Plan: plan},
	} {
		job.Plan = doc
		b, err := json.Marshal(job)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add(fmt.Sprintf(`{"workflow":{"synthetic":{"nodes":20,"seed":1}},"plan":%s}`, entries))
	f.Add(`{"workflow":{"synthetic":{}},"execute":true,"market":{"regime":"hostile","horizon":600}}`)
	for _, tc := range tooLargeBodies {
		f.Add(tc.body)
	}

	s := New(Config{QueueDepth: 2, CacheEntries: 4})
	f.Fuzz(func(t *testing.T, body string) {
		rec := serve(s, "POST", "/v1/jobs", body)
		switch {
		case rec.Code == http.StatusAccepted:
			var st api.JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.State != api.StateQueued {
				t.Fatalf("202 body %s (%v)", rec.Body, err)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var apiErr api.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
				t.Fatalf("HTTP %d body %s: %v", rec.Code, rec.Body, err)
			}
			if !knownCodes[apiErr.Code] || apiErr.HTTPStatus() != rec.Code {
				t.Fatalf("HTTP %d with error %+v", rec.Code, apiErr)
			}
		default:
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	})
}
