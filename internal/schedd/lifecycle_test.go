package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reassign/internal/api"
	"reassign/internal/core"
	"reassign/internal/sched"
	"reassign/internal/sim"
)

// TestSubmitRollbackStorm hammers a full admission queue with
// concurrent submissions while accepted jobs keep registering. The
// old rollback blindly truncated the order slice's tail, so a
// rejected submission racing an accepted one could orphan the
// accepted job's registry entry; removal by ID keeps the registry
// consistent. Run with -race to catch the interleaving.
func TestSubmitRollbackStorm(t *testing.T) {
	// A tight queue with workers actively draining it: slots free up
	// mid-storm, so a submission can register, lose its slot to a
	// later-registered one, and roll back while the winner sits at the
	// registry tail — exactly the interleaving blind truncation
	// corrupts.
	s, url := newTestServer(t, Config{Workers: 2, QueueDepth: 1})

	tiny := func(seed int64) api.SubmitRequest {
		req := smallJob(seed)
		req.Workflow = api.WorkflowSpec{Synthetic: &api.SyntheticSpec{Family: "montage", Nodes: 10, Seed: 1}}
		req.Learn = api.LearnSpec{Episodes: 1}
		return req
	}
	const storm = 64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []string
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			st, r := submit(t, url, tiny(seed))
			if st != nil {
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
			} else if r.StatusCode != http.StatusTooManyRequests {
				t.Errorf("rejection was HTTP %d, want 429", r.StatusCode)
			}
		}(int64(i))
	}
	wg.Wait()

	// Registry integrity: order and jobs agree exactly, no duplicates,
	// no dangling IDs, and every accepted job is still registered.
	s.mu.Lock()
	if len(s.order) != len(s.jobs) {
		s.mu.Unlock()
		t.Fatalf("order has %d entries, jobs map %d", len(s.order), len(s.jobs))
	}
	seen := make(map[string]bool, len(s.order))
	for _, id := range s.order {
		if seen[id] {
			s.mu.Unlock()
			t.Fatalf("duplicate id %s in order", id)
		}
		seen[id] = true
		if s.jobs[id] == nil {
			s.mu.Unlock()
			t.Fatalf("order references unregistered job %s", id)
		}
	}
	s.mu.Unlock()
	for _, id := range accepted {
		if st := getStatus(t, url, id); st.ID != id {
			t.Fatalf("accepted job %s lost from registry", id)
		}
	}
	if jobs, _ := s.tenants.totals(); jobs[jobsRejected] != int64(storm-len(accepted)) {
		t.Fatalf("rejected counter %d, want %d", jobs[jobsRejected], storm-len(accepted))
	}
}

// TestSubmitRollbackInterleaved forces the exact interleaving the
// storm only hits probabilistically: submission R registers first,
// then stalls while submission A registers behind it and wins the
// last queue slot; R is rejected and rolls back. The old blind tail
// truncation removed A's registry entry instead of R's, leaving R
// dangling in the order slice.
func TestSubmitRollbackInterleaved(t *testing.T) {
	// No workers started: the queue (depth 1) is never drained, so
	// whoever sends first wins the only slot.
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rStalled := make(chan struct{})
	release := make(chan struct{})
	var claimed atomic.Bool
	s.testSubmitHook = func(*job) {
		// Only the first submission (R) stalls; A passes straight
		// through to the queue send (a sync.Once would block A until
		// R's stalled hook returned).
		if claimed.CompareAndSwap(false, true) {
			close(rStalled)
			<-release
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var rResp submitResp
	go func() {
		defer wg.Done()
		_, rResp = submit(t, ts.URL, smallJob(1))
	}()
	<-rStalled

	// A registers behind R and takes the slot.
	a, resp := submit(t, ts.URL, smallJob(2))
	if a == nil {
		t.Fatalf("second submit rejected: HTTP %d", resp.StatusCode)
	}
	close(release)
	wg.Wait()
	if rResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stalled submit: HTTP %d, want 429", rResp.StatusCode)
	}

	// R's rollback must have removed R, not A.
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) != 1 || s.order[0] != a.ID {
		t.Fatalf("order = %v, want exactly the accepted job %s", s.order, a.ID)
	}
	if s.jobs[a.ID] == nil {
		t.Fatalf("accepted job %s missing from registry", a.ID)
	}
	if len(s.jobs) != 1 {
		t.Fatalf("registry holds %d jobs, want 1", len(s.jobs))
	}
}

// TestCancelDuringReplay pins the replay path's cancellation: a plan
// replay whose context is already canceled must abort inside the
// simulation with context.Canceled instead of running to completion.
// Before the fix the replay ignored its context entirely.
func TestCancelDuringReplay(t *testing.T) {
	s := New(Config{})
	req := smallJob(1)
	w, err := req.Workflow.Build()
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := req.Fleet.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := &sched.HEFT{}
	if _, err := sim.Run(w, fleet, h, sim.Config{}); err != nil {
		t.Fatal(err)
	}

	j := &job{id: "replay", req: req, w: w, fleet: fleet,
		replay: compactPlan(w, core.NewPlan(h.Assign())), state: api.StateQueued, submitted: time.Now()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.execute(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled replay returned %v, want context.Canceled", err)
	}

	// An uncanceled context replays normally.
	if err := s.execute(context.Background(), j); err != nil {
		t.Fatalf("live replay failed: %v", err)
	}
}

// TestLatencyWindowBounded runs more jobs than the configured window
// and checks the daemon retains only the window (the old unbounded
// slice grew forever in a long-lived daemon).
func TestLatencyWindowBounded(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 2, LatencyWindow: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		st, resp := submit(t, url, smallJob(int64(i)))
		if st == nil {
			t.Fatalf("submit %d rejected: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitDone(t, url, id)
	}
	s.tenants.mu.Lock()
	n := len(s.tenants.total.lat.Samples())
	s.tenants.mu.Unlock()
	if n != 3 {
		t.Fatalf("latency window holds %d samples, want 3", n)
	}
	// /metrics still summarises the window.
	body := fetchMetrics(t, url)
	if !strings.Contains(body, "schedd_job_latency_seconds_p50") {
		t.Fatal("latency summary missing from /metrics")
	}
}

// TestOversizedBody413 pins the typed over-limit error: a body beyond
// MaxBodyBytes must return 413 with CodeTooLarge, not a generic 400.
func TestOversizedBody413(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 256})
	// Valid JSON longer than the limit, so the decoder is reading
	// clean syntax when the byte cap trips mid-stream.
	blob := []byte(`{"pad":"` + strings.Repeat("x", 512) + `"}`)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeTooLarge {
		t.Fatalf("error code %q, want %q", apiErr.Code, api.CodeTooLarge)
	}
}

func TestNegativeDeadlineRejected(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	req := smallJob(1)
	req.DeadlineSeconds = -5
	st, resp := submit(t, url, req)
	if st != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline: HTTP %d, want 400", resp.StatusCode)
	}
	if resp.Err == nil || resp.Err.Field != "deadline_seconds" {
		t.Fatalf("error body %+v", resp.Err)
	}
}

// TestTenantTracking submits jobs under named tenants with deadline
// hints and checks the per-tenant accounting: JobStatus echoes the
// tenant and deadline outcome, and /metrics exports labeled series.
func TestTenantTracking(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 2})

	acme := smallJob(1)
	acme.Tenant = "acme"
	acme.DeadlineSeconds = 1e-9 // unmeetable: any real run overshoots
	a, resp := submit(t, url, acme)
	if a == nil {
		t.Fatalf("acme submit rejected: HTTP %d", resp.StatusCode)
	}
	b, resp := submit(t, url, smallJob(2)) // anonymous → "default"
	if b == nil {
		t.Fatalf("default submit rejected: HTTP %d", resp.StatusCode)
	}

	aDone := waitDone(t, url, a.ID)
	waitDone(t, url, b.ID)
	if aDone.Tenant != "acme" || aDone.DeadlineSeconds != 1e-9 {
		t.Fatalf("status lost tenant/deadline: %+v", aDone)
	}
	if !aDone.DeadlineMissed {
		t.Fatal("nanosecond deadline should be missed")
	}

	body := fetchMetrics(t, url)
	for _, want := range []string{
		`schedd_tenant_jobs_submitted_total{tenant="acme"} 1`,
		`schedd_tenant_jobs_submitted_total{tenant="default"} 1`,
		`schedd_tenant_jobs_completed_total{tenant="acme"} 1`,
		`schedd_tenant_deadline_misses_total{tenant="acme"} 1`,
		`schedd_tenant_jobs_running{tenant="acme"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Gauges settled back to zero.
	s.tenants.mu.Lock()
	for name, ts := range s.tenants.tenants {
		if ts.n[jobsQueued] != 0 || ts.n[jobsRunning] != 0 {
			t.Errorf("tenant %s gauges not settled: queued=%d running=%d", name, ts.n[jobsQueued], ts.n[jobsRunning])
		}
	}
	s.tenants.mu.Unlock()
}

func fetchMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestEvictionOrder pins evictLocked: beyond MaxJobs the oldest
// finished jobs go first, and a queued or running job is never
// evicted — including when the oldest job in the registry is the one
// still running, which takes the scan instead of the pop-from-head
// path. The registry is driven directly: the rule is about order and
// state, not HTTP.
func TestEvictionOrder(t *testing.T) {
	s := New(Config{MaxJobs: 3})
	register := func(id, state string) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.jobs[id] = &job{id: id, state: state}
		s.order = append(s.order, id)
		s.evictLocked()
	}
	setState := func(id, state string) {
		j := s.jobs[id]
		j.mu.Lock()
		j.state = state
		j.mu.Unlock()
	}
	check := func(step string, want ...string) {
		t.Helper()
		if strings.Join(s.order, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: order %v, want %v", step, s.order, want)
		}
		if len(s.jobs) != len(want) {
			t.Fatalf("%s: registry holds %d jobs, order %d", step, len(s.jobs), len(want))
		}
		for _, id := range want {
			if s.jobs[id] == nil {
				t.Fatalf("%s: %s in order but not registered", step, id)
			}
		}
	}

	// All finished: a sliding window of the newest MaxJobs.
	for _, id := range []string{"a1", "a2", "a3", "a4", "a5"} {
		register(id, api.StateDone)
	}
	check("finished head", "a3", "a4", "a5")

	// The oldest job is still running.
	setState("a3", api.StateRunning)
	register("b1", api.StateQueued)
	check("running head, one excess", "a3", "a5", "b1")
	register("b2", api.StateFailed)
	check("running head, next oldest finished goes", "a3", "b1", "b2")
	register("b3", api.StateQueued)
	check("finished job behind two live ones goes", "a3", "b1", "b3")
	register("b4", api.StateQueued)
	check("nothing finished: the registry grows past MaxJobs", "a3", "b1", "b3", "b4")

	// The head finishes: it pops, and the remaining excess has nothing
	// finished to take.
	setState("a3", api.StateCanceled)
	register("b5", api.StateQueued)
	check("head finished", "b1", "b3", "b4", "b5")
	setState("b3", api.StateDone)
	setState("b4", api.StateDone)
	register("b6", api.StateQueued)
	check("two excess, both from behind a live head", "b1", "b5", "b6")
}

// TestEvictionMatchesFullScan replays random registries through
// evictLocked and through the scan it used to be (rewrite the whole
// order, dropping the first `excess` finished jobs): same survivors,
// same order, every time.
func TestEvictionMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	states := []string{api.StateQueued, api.StateRunning, api.StateDone, api.StateFailed, api.StateCanceled}
	for trial := 0; trial < 200; trial++ {
		s := New(Config{MaxJobs: 1 + rng.Intn(6)})
		var ref []string
		for n := 0; n < 40; n++ {
			id := fmt.Sprintf("j%02d", n)
			// Mostly finished jobs, so the pop path and the scan both run.
			state := states[2+rng.Intn(3)]
			if rng.Intn(4) == 0 {
				state = states[rng.Intn(2)]
			}
			s.jobs[id] = &job{id: id, state: state}
			s.order = append(s.order, id)
			ref = append(ref, id)
			if live := s.jobs[ref[rng.Intn(len(ref))]]; live != nil && rng.Intn(3) == 0 {
				live.state = api.StateDone
			}

			excess := len(ref) - s.cfg.MaxJobs
			kept := ref[:0:0]
			for _, id := range ref {
				if excess > 0 && s.jobs[id].finished() {
					excess--
					continue
				}
				kept = append(kept, id)
			}
			ref = kept
			s.evictLocked()

			if strings.Join(s.order, " ") != strings.Join(ref, " ") || len(s.jobs) != len(ref) {
				t.Fatalf("trial %d step %d: order %v (%d registered), full scan keeps %v",
					trial, n, s.order, len(s.jobs), ref)
			}
		}
	}
}
