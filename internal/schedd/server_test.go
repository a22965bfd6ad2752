package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"reassign/internal/api"
	"reassign/internal/core"
)

// newTestServer starts a daemon with a small config, serving over
// httptest. The caller gets the base URL; cleanup shuts both down.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	return s, startTestServer(t, s)
}

// startTestServer is newTestServer for a daemon the caller built, so
// test hooks can be installed before the workers start.
func startTestServer(t *testing.T, s *Server) string {
	t.Helper()
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts.URL
}

// submitResp is a decoded submission response: either an accepted
// JobStatus or the error body, plus the HTTP status code.
type submitResp struct {
	StatusCode int
	Err        *api.Error
}

func submit(t *testing.T, url string, req api.SubmitRequest) (*api.JobStatus, submitResp) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sr := submitResp{StatusCode: resp.StatusCode}
	if resp.StatusCode != http.StatusAccepted {
		var apiErr api.Error
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatalf("decoding error body (HTTP %d): %v", resp.StatusCode, err)
		}
		sr.Err = &apiErr
		return nil, sr
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st, sr
}

func getStatus(t *testing.T, url, id string) *api.JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// waitDone polls until the job reaches a terminal state.
func waitDone(t *testing.T, url, id string) *api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, url, id)
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

// smallJob is a fast-learning submission used across the suite.
func smallJob(seed int64) api.SubmitRequest {
	return api.SubmitRequest{
		SchemaVersion: api.SchemaVersion,
		Workflow:      api.WorkflowSpec{Synthetic: &api.SyntheticSpec{Family: "montage", Nodes: 20, Seed: 1}},
		Fleet:         api.FleetSpec{},
		Learn:         api.LearnSpec{Episodes: 5},
		Seed:          seed,
	}
}

func TestSubmitStatusHappyPath(t *testing.T) {
	// Hold the workers until the submission is answered: a five-episode
	// job can finish before the handler renders its 202, and the
	// response would then rightly say "done".
	gate := make(chan struct{})
	var release sync.Once
	defer release.Do(func() { close(gate) })
	s := New(Config{Workers: 2})
	s.testHook = func(*job) { <-gate }
	url := startTestServer(t, s)

	st, resp := submit(t, url, smallJob(7))
	release.Do(func() { close(gate) })
	if st == nil {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	if st.State != api.StateQueued && st.State != api.StateRunning {
		t.Fatalf("fresh job state %q", st.State)
	}
	if st.Workflow == "" || st.Activations == 0 || st.VMs != 9 {
		// Table I at 16 vCPUs provisions 9 VMs.
		t.Fatalf("job metadata missing: %+v", st)
	}

	done := waitDone(t, url, st.ID)
	if done.State != api.StateDone {
		t.Fatalf("job ended %s: %+v", done.State, done.Error)
	}
	if done.Plan == nil || done.Plan.Plan.Len() != done.Activations {
		t.Fatalf("done job should carry a full plan: %+v", done.Plan)
	}
	if done.Plan.MakespanSeconds <= 0 || done.Episodes != 5 {
		t.Fatalf("plan makespan %v, episodes %d", done.Plan.MakespanSeconds, done.Episodes)
	}
	if done.LatencySeconds <= 0 {
		t.Fatal("finished job should report latency")
	}

	// The listing includes it, without the heavy fields.
	resp2, err := http.Get(url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list []api.JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID || list[0].Plan != nil {
		t.Fatalf("listing: %+v", list)
	}
}

func TestSubmitMalformedDAX(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	req := smallJob(1)
	req.Workflow = api.WorkflowSpec{Format: "dax", Source: "<adag><job this is not xml"}
	st, resp := submit(t, url, req)
	if st != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed DAX: HTTP %d, want 400", resp.StatusCode)
	}
	if resp.Err == nil || resp.Err.Code != api.CodeBadRequest || resp.Err.Field != "workflow" {
		t.Fatalf("error body %+v", resp.Err)
	}
}

func TestSubmitInvalidPlan(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})

	// A plan naming a VM outside the fleet is rejected at submission
	// with the offending entry in the error field.
	req := smallJob(1)
	w, err := req.Workflow.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]int)
	for _, a := range w.Activations() {
		m[a.ID] = 0
	}
	m[w.Activations()[0].ID] = 999
	req.Plan = &api.PlanDocument{SchemaVersion: api.SchemaVersion, Plan: core.NewPlan(m)}
	st, resp := submit(t, url, req)
	if st != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid plan: HTTP %d, want 400", resp.StatusCode)
	}
	if resp.Err == nil || resp.Err.Code != api.CodeInvalidPlan || !strings.Contains(resp.Err.Field, "plan.") {
		t.Fatalf("error body %+v", resp.Err)
	}

	// The valid version of the same plan replays successfully.
	m[w.Activations()[0].ID] = 0
	req.Plan = &api.PlanDocument{SchemaVersion: api.SchemaVersion, Plan: core.NewPlan(m)}
	st, resp = submit(t, url, req)
	if st == nil {
		t.Fatalf("valid plan rejected: HTTP %d", resp.StatusCode)
	}
	done := waitDone(t, url, st.ID)
	if done.State != api.StateDone || done.Plan == nil || done.Plan.MakespanSeconds <= 0 {
		t.Fatalf("replay failed: %+v %+v", done, done.Error)
	}
}

func TestQueueFull(t *testing.T) {
	// One worker held on a gate, a one-deep queue: the third submission
	// must be rejected with 429 and counted.
	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(1)
	s := New(Config{Workers: 1, QueueDepth: 1})
	var once sync.Once
	s.testHook = func(*job) {
		once.Do(held.Done)
		<-gate
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	first, resp := submit(t, ts.URL, smallJob(1))
	if first == nil {
		t.Fatalf("first submit rejected: HTTP %d", resp.StatusCode)
	}
	held.Wait() // worker is now parked on the gate
	second, resp := submit(t, ts.URL, smallJob(2))
	if second == nil {
		t.Fatalf("second submit rejected: HTTP %d", resp.StatusCode)
	}
	third, resp := submit(t, ts.URL, smallJob(3))
	if third != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Err == nil || resp.Err.Code != api.CodeQueueFull {
		t.Fatalf("error body %+v", resp.Err)
	}
	if jobs, _ := s.tenants.totals(); jobs[jobsRejected] != 1 {
		t.Fatalf("rejected counter %d, want 1", jobs[jobsRejected])
	}
	// The rejected job is not registered.
	if got := getStatusCode(t, ts.URL+"/v1/jobs/"+jobIDAfter(second.ID)); got != http.StatusNotFound {
		t.Fatalf("rejected job lookup: HTTP %d, want 404", got)
	}
}

// jobIDAfter returns the ID the rejected submission briefly held.
func jobIDAfter(id string) string {
	var n int
	fmt.Sscanf(id, "j%06d", &n)
	return fmt.Sprintf("j%06d", n+1)
}

func getStatusCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestCancel(t *testing.T) {
	// Hold the single worker so the second job stays queued, then
	// cancel it: it must settle canceled without ever running.
	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(1)
	s := New(Config{Workers: 1, QueueDepth: 8})
	var once sync.Once
	s.testHook = func(*job) {
		once.Do(held.Done)
		<-gate
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	running, resp := submit(t, ts.URL, smallJob(1))
	if running == nil {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	held.Wait()
	queued, resp := submit(t, ts.URL, smallJob(2))
	if queued == nil {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}

	cresp, err := http.Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", cresp.StatusCode)
	}
	st := getStatus(t, ts.URL, queued.ID)
	if st.State != api.StateCanceled {
		t.Fatalf("queued job state %q, want canceled", st.State)
	}

	// Canceling a finished job conflicts.
	cresp, err = http.Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: HTTP %d, want 409", cresp.StatusCode)
	}

	// Release the gate; the first (long-gated) job now runs. Cancel it
	// mid-run via its context.
	close(gate)
	done := waitDone(t, ts.URL, running.ID)
	if done.State != api.StateDone {
		t.Fatalf("held job ended %q", done.State)
	}

	// Unknown job → 404.
	if got := getStatusCode(t, ts.URL+"/v1/jobs/zzz"); got != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", got)
	}
}

func TestCancelRunning(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	req := smallJob(1)
	req.Learn.Episodes = 100000 // long enough to catch mid-run
	req.Workflow.Synthetic.Nodes = 60
	st, resp := submit(t, url, req)
	if st == nil {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	// Wait for it to start.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, url, st.ID).State == api.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cresp, err := http.Post(url+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: HTTP %d", cresp.StatusCode)
	}
	done := waitDone(t, url, st.ID)
	if done.State != api.StateCanceled {
		t.Fatalf("state %q, want canceled (err %+v)", done.State, done.Error)
	}
	if jobs, _ := s.tenants.totals(); jobs[jobsCanceled] != 1 {
		t.Fatalf("canceled counter %d, want 1", jobs[jobsCanceled])
	}
}

func TestConcurrentSubmits(t *testing.T) {
	// Hammer the daemon from many goroutines; every accepted job must
	// finish done. Run under -race this doubles as the data-race test.
	_, url := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	const n = 24
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := smallJob(int64(i))
			req.Workflow.Synthetic.Seed = int64(i % 3)
			st, resp := submit(t, url, req)
			if st == nil {
				t.Errorf("submit %d rejected: HTTP %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, id := range ids {
		if st := waitDone(t, url, id); st.State != api.StateDone {
			t.Errorf("job %s ended %q: %+v", id, st.State, st.Error)
		}
	}
}

func TestDeterministicPlans(t *testing.T) {
	// Two NoWarmStart jobs with identical seeds must return
	// byte-identical plan documents, regardless of daemon state in
	// between.
	_, url := newTestServer(t, Config{Workers: 2})

	run := func(seed int64) []byte {
		req := smallJob(seed)
		req.NoWarmStart = true
		st, resp := submit(t, url, req)
		if st == nil {
			t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
		}
		done := waitDone(t, url, st.ID)
		if done.State != api.StateDone {
			t.Fatalf("job ended %q: %+v", done.State, done.Error)
		}
		data, err := json.Marshal(done.Plan)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	a := run(42)
	// An unrelated job in between perturbs daemon state (cache, pool).
	other, _ := submit(t, url, smallJob(7))
	if other != nil {
		waitDone(t, url, other.ID)
	}
	b := run(42)
	if !bytes.Equal(a, b) {
		t.Fatalf("plans differ:\n%s\n%s", a, b)
	}
}

func TestWarmStartCacheHit(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})

	first, resp := submit(t, url, smallJob(1))
	if first == nil {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	if st := waitDone(t, url, first.ID); st.CacheHit {
		t.Fatal("first job cannot hit the cache")
	}

	second, resp := submit(t, url, smallJob(2))
	if second == nil {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	st := waitDone(t, url, second.ID)
	if !st.CacheHit {
		t.Fatal("same-structure resubmission should warm-start from the cache")
	}
	hits, misses := s.cache.stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}

	// A different structure misses.
	req := smallJob(3)
	req.Workflow.Synthetic.Nodes = 30
	third, resp := submit(t, url, req)
	if third == nil {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	if st := waitDone(t, url, third.ID); st.CacheHit {
		t.Fatal("different structure must not hit the cache")
	}
}

func TestExecuteAttachesProvenance(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	req := smallJob(5)
	req.Execute = true
	st, resp := submit(t, url, req)
	if st == nil {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	done := waitDone(t, url, st.ID)
	if done.State != api.StateDone {
		t.Fatalf("job ended %q: %+v", done.State, done.Error)
	}
	if len(done.Provenance) != done.Activations {
		t.Fatalf("provenance records %d, want %d", len(done.Provenance), done.Activations)
	}
	if done.ExecMakespanSeconds <= 0 {
		t.Fatal("executed job should report a makespan")
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	st, resp := submit(t, url, smallJob(1))
	if st == nil {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	waitDone(t, url, st.ID)

	hresp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", hresp.StatusCode)
	}

	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	body := buf.String()
	for _, want := range []string{
		"reassign_episodes_total 5",
		"schedd_jobs_submitted_total 1",
		"schedd_jobs_completed_total 1",
		"schedd_qtable_cache_misses_total 1",
		"schedd_engine_pool_fresh_total",
		"schedd_job_latency_seconds_p99",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSchemaVersionRejected: a request or a submitted plan document of
// another schema version is a typed 400 naming the version's field.
func TestSchemaVersionRejected(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	req := smallJob(1)
	req.SchemaVersion = "v9"
	st, resp := submit(t, url, req)
	if st != nil || resp.StatusCode != http.StatusBadRequest || resp.Err.Code != api.CodeBadRequest || resp.Err.Field != "schema_version" {
		t.Fatalf("v9 submit: HTTP %d %+v, want 400 %s on schema_version", resp.StatusCode, resp.Err, api.CodeBadRequest)
	}

	req = smallJob(1)
	req.Plan = &api.PlanDocument{SchemaVersion: "v9"}
	st, resp = submit(t, url, req)
	if st != nil || resp.StatusCode != http.StatusBadRequest || resp.Err.Code != api.CodeBadRequest || resp.Err.Field != "plan.schema_version" {
		t.Fatalf("v9 plan: HTTP %d %+v, want 400 %s on plan.schema_version", resp.StatusCode, resp.Err, api.CodeBadRequest)
	}
}

func TestShutdownRejectsSubmits(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, resp := submit(t, ts.URL, smallJob(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: HTTP %d, want 503", resp.StatusCode)
	}
}
