package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"reassign/internal/api"
	"reassign/internal/core"
)

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
// decodes to the value the handler built.
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
	checkCompact(t, "submit", rec, http.StatusAccepted, j1.status())

	rec = serve(s, "POST", "/v1/jobs", submitBody(smallJob(2)))
	j2 := s.lookup("j000002")
	if j2 == nil {
		t.Fatalf("second submission not registered: HTTP %d %s", rec.Code, rec.Body)
	}
	checkCompact(t, "cancel", serve(s, "POST", "/v1/jobs/j000002/cancel", ""), http.StatusOK, j2.status())
	checkCompact(t, "list", serve(s, "GET", "/v1/jobs", ""), http.StatusOK, []*api.JobStatus{j1.summary(), j2.summary()})
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
	st := j1.status()
	if st.State != api.StateDone || st.Plan == nil || len(st.Provenance) == 0 {
		t.Fatalf("executed job: %+v", st)
	}
	checkCompact(t, "status", serve(s, "GET", "/v1/jobs/j000001", ""), http.StatusOK, st)
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
