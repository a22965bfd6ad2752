package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
	"reassign/internal/provenance"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
	"reassign/internal/wfjson"
)

// replayJob registers nothing: it builds a CyberShake replay job the
// way handleSubmit would — workflow and fleet through the server's
// intern tables, the HEFT plan validated and compacted — executed
// under a hostile market trace.
func replayJob(t *testing.T, s *Server, id string, nodes int, seed int64) (*job, *api.PlanDocument) {
	t.Helper()
	var doc bytes.Buffer
	if err := wfjson.Write(&doc, trace.CyberShake(rand.New(rand.NewSource(1)), nodes)); err != nil {
		t.Fatal(err)
	}
	req := api.SubmitRequest{
		Workflow: api.WorkflowSpec{Format: "wfjson", Source: doc.String()},
		Fleet:    api.FleetSpec{Preset: "table1", VCPUs: 32},
		Seed:     seed,
		Execute:  true,
		Market:   &api.MarketSpec{Regime: "hostile"},
	}
	w, err := internWorkflow(s, req.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := s.fleets.build(req.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	h := &sched.HEFT{}
	res, err := sim.Run(w, fleet, h, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	submitted := api.NewPlanDocument(w.Name, fleet.Name, res.Makespan, core.NewPlan(h.Assign()))
	req.Workflow.Source = ""
	return &job{id: id, req: req, w: w, fleet: fleet,
		sig: api.StructureSignature(w, fleet), replay: compactPlan(w, submitted.Plan),
		state: api.StateQueued, submitted: time.Now()}, submitted
}

// teeRecorder records a run into the provenance store and a job's
// rows alike, each stamping with a clock that steps one second per
// execution record, so the two stamp every record the same and no
// result depends on where a second boundary falls.
type teeRecorder struct {
	store *provenance.Store
	rows  *provRecorder
	now   time.Time
}

func newTeeRecorder(w *dag.Workflow, runID string) *teeRecorder {
	r := &teeRecorder{store: provenance.NewStore(), rows: &provRecorder{w: w, runID: runID},
		now: time.Unix(1_700_000_000, 0)}
	clock := func() time.Time { return r.now }
	r.store.SetNow(clock)
	r.rows.now = clock
	return r
}

func (r *teeRecorder) Grow(execs, attempts int) {
	r.store.Grow(execs, attempts)
	r.rows.Grow(execs, attempts)
}

func (r *teeRecorder) Add(e provenance.Execution) {
	r.now = r.now.Add(time.Second)
	r.store.Add(e)
	r.rows.Add(e)
}

func (r *teeRecorder) AddAttempt(a provenance.Attempt) {
	r.store.AddAttempt(a)
	r.rows.AddAttempt(a)
}

// checkWritesStore fails unless j's served status is, byte for byte,
// encoding/json's encoding of its summary with the plan document want
// and the records of store.
func checkWritesStore(t *testing.T, j *job, want *api.PlanDocument, store *provenance.Store) {
	t.Helper()
	got, err := j.appendStatus(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := j.summary()
	st.Plan, st.Provenance = want, store.All()
	if b, err := encodeRef(st); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("written status differs from the store's records under encoding/json (%v):\n%s\nwant:\n%s", err, got, b)
	}
}

// TestFinishedJobRendersExactRecords: a finished, executed market job
// keeps its provenance as rows and its plan as one VM per activation,
// yet its status writes byte for byte as encoding/json writes the
// master's store.All() and the plan document the job was planned with.
// The run remediates preempted VMs, so the rows carry replacement VMs
// the fleet does not have — and the interned fleet, shared with every
// other job on that spec, comes out of it unchanged. A run whose
// activations exhaust their attempts writes its failed rows exactly
// too.
func TestFinishedJobRendersExactRecords(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	for seed := int64(1); ; seed++ {
		if seed > 20 {
			t.Fatal("no seed in 1..20 remediated a VM under the hostile trace")
		}
		j, submitted := replayJob(t, s, "j000001", 100, seed)
		before := make([]cloud.VM, len(j.fleet.VMs))
		for i, vm := range j.fleet.VMs {
			before[i] = *vm
		}
		plan, err := s.planJob(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		rec := newTeeRecorder(j.w, j.id)
		rep, _, err := s.runPlan(ctx, j, plan, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.keepRun(rec.rows, rep); err != nil {
			t.Fatal(err)
		}
		if rep.Remediated == 0 {
			continue
		}
		submitted.MakespanSeconds = j.planMakespan // the replay's makespan, as execute reports it
		checkWritesStore(t, j, submitted, rec.store)

		replacement := false
		for _, e := range rec.store.All() {
			replacement = replacement || e.VMID >= len(before)
		}
		if !replacement {
			t.Logf("seed %d: %d remediations, none ran a task", seed, rep.Remediated)
		}
		other, err := s.fleets.build(api.FleetSpec{Preset: "TABLE1", VCPUs: 32})
		if err != nil || other != j.fleet {
			t.Fatalf("an equivalent spec built fleet %p (%v), not the interned %p", other, err, j.fleet)
		}
		if len(j.fleet.VMs) != len(before) {
			t.Fatalf("shared fleet grew from %d to %d VMs", len(before), len(j.fleet.VMs))
		}
		for i, vm := range j.fleet.VMs {
			if *vm != before[i] {
				t.Fatalf("shared fleet VM %d changed: %+v, was %+v", i, *vm, before[i])
			}
		}
		break
	}

	// Abandoned activations: every attempt fails with probability 0.6,
	// so some activations exhaust their five and take their descendants
	// with them, each as a failed row.
	j, submitted := replayJob(t, s, "j000002", 100, 1)
	plan, err := s.planJob(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	rec := newTeeRecorder(j.w, j.id)
	m, err := exec.New(j.w, j.fleet, plan, &exec.InProc{Workers: 4,
		Runner: exec.FailingRunner{Inner: exec.SimRunner{Seed: 3}, Rate: 0.6, Seed: 5}}, exec.WithStore(rec, j.id))
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := m.Run(ctx) // abandoned activations fail the run
	if rep == nil || rep.Abandoned == 0 {
		t.Fatalf("no activation abandoned: %+v", rep)
	}
	if err := j.keepRun(rec.rows, rep); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, e := range rec.store.All() {
		if !e.Success {
			failed++
		}
	}
	if failed != rep.Abandoned {
		t.Fatalf("%d failed records for %d abandoned activations", failed, rep.Abandoned)
	}
	submitted.MakespanSeconds = j.planMakespan
	checkWritesStore(t, j, submitted, rec.store)
}

// TestFleetIntern: equivalent specs share one fleet, distinct specs do
// not, and a spec that fails to build leaves nothing behind.
func TestFleetIntern(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	fleetOf := func(spec api.FleetSpec) *cloud.Fleet {
		t.Helper()
		req := smallJob(1)
		req.Fleet = spec
		return s.lookup(mustSubmit(t, url, req).ID).fleet
	}
	def := fleetOf(api.FleetSpec{})
	if fleetOf(api.FleetSpec{Preset: "Table1", VCPUs: 16}) != def {
		t.Fatal("the default spec and its explicit form built two fleets")
	}
	if fleetOf(api.FleetSpec{VCPUs: 32}) == def || fleetOf(api.FleetSpec{Preset: "scaled", VCPUs: 16}) == def {
		t.Fatal("different fleets share an entry")
	}
	custom := api.FleetSpec{Types: []api.VMCount{{Type: "t2.micro", Count: 8}, {Type: "t2.2xlarge", Count: 1}}}
	if c := fleetOf(custom); c == def || fleetOf(custom) != c {
		t.Fatal("a custom spec is not interned apart from the preset of the same shape")
	}
	for _, bad := range []api.FleetSpec{{Preset: "nope"}, {VCPUs: 48}, {Types: []api.VMCount{{Type: "t9.huge", Count: 1}}}} {
		req := smallJob(1)
		req.Fleet = bad
		if st, resp := submit(t, url, req); st != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("fleet %+v: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
	if n := s.fleets.len(); n != 4 {
		t.Fatalf("fleet intern holds %d entries, want 4", n)
	}
}

// TestListIsStatusSummary: GET /v1/jobs carries each job's status
// without plan and provenance, and builds it without rendering them.
func TestListIsStatusSummary(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	req := smallJob(3)
	req.Execute = true
	done := waitDone(t, url, mustSubmit(t, url, req).ID)
	if done.Plan == nil || len(done.Provenance) == 0 {
		t.Fatalf("executed job lacks plan or provenance: %+v", done)
	}
	j := s.lookup(done.ID)
	full := refStatus(j)
	full.Plan, full.Provenance = nil, nil
	want, _ := json.Marshal(full)
	got, _ := json.Marshal(j.summary())
	if !bytes.Equal(got, want) {
		t.Fatalf("summary:\n%s\nstatus without plan and provenance:\n%s", got, want)
	}
	resp, err := http.Get(url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if len(list) != 1 || json.Compact(&compact, list[0]) != nil || compact.String() != string(want) {
		t.Fatalf("listing %s, want [%s]", list, want)
	}
}

// TestPanicContained: a job whose pipeline panics fails with
// CodeInternal, the counter says so, and the one worker goes on to run
// the next job.
func TestPanicContained(t *testing.T) {
	s := New(Config{Workers: 1})
	first := true
	s.testHook = func(*job) {
		if first {
			first = false
			panic("boom")
		}
	}
	url := startTestServer(t, s)
	bad := waitDone(t, url, mustSubmit(t, url, smallJob(1)).ID)
	if bad.State != api.StateFailed || bad.Error == nil || bad.Error.Code != api.CodeInternal ||
		!strings.Contains(bad.Error.Reason, "boom") {
		t.Fatalf("panicking job ended %s with %+v, want failed/internal", bad.State, bad.Error)
	}
	if good := waitDone(t, url, mustSubmit(t, url, smallJob(2)).ID); good.State != api.StateDone {
		t.Fatalf("job after the panic ended %s: %+v", good.State, good.Error)
	}
	body := fetchMetrics(t, url)
	for _, want := range []string{"schedd_jobs_panicked_total 1", "schedd_jobs_failed_total 1", "schedd_jobs_completed_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// tooLargeBodies are small submissions over an admission bound, each
// with the field its 413 names.
var tooLargeBodies = []struct{ body, field string }{
	{`{"workflow":{"synthetic":{"nodes":1000000000}}}`, "workflow.synthetic.nodes"},
	{`{"workflow":{"synthetic":{}},"fleet":{"preset":"scaled","vcpus":1600000000}}`, "fleet.vcpus"},
	{`{"workflow":{"synthetic":{}},"fleet":{"types":[{"type":"t2.micro","count":1000000000}]}}`, "fleet.types"},
	// Just over the learning and horizon bounds first: where they are
	// missing, the cheap job is the one that gets queued.
	{fmt.Sprintf(`{"workflow":{"synthetic":{}},"learn":{"episodes":1,"replicas":%d}}`, api.MaxLearnReplicas+1), "learn.replicas"},
	{fmt.Sprintf(`{"workflow":{"synthetic":{}},"learn":{"episodes":%d,"replicas":4}}`, api.MaxLearnEpisodes/4+1), "learn.episodes"},
	{fmt.Sprintf(`{"workflow":{"synthetic":{}},"execute":true,"market":{"regime":"stable","horizon":%d}}`, api.MaxMarketHorizon+1), "market.horizon"},
	{`{"workflow":{"synthetic":{}},"learn":{"replicas":1000000000}}`, "learn.replicas"},
	{`{"workflow":{"synthetic":{}},"learn":{"episodes":1000000000}}`, "learn.episodes"},
	{`{"workflow":{"synthetic":{}},"execute":true,"market":{"regime":"stable","horizon":1e12}}`, "market.horizon"},
}

// TestSubmitBoundsTooLarge: a tiny body asking for a huge synthetic
// workflow or fleet, a huge learning budget or a huge market horizon is
// refused with a typed 413 before anything is built or queued — in well
// under the time building it would take.
func TestSubmitBoundsTooLarge(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	for _, tc := range tooLargeBodies {
		if len(tc.body) > 100 {
			t.Fatalf("body of %d bytes: the point is a small one", len(tc.body))
		}
		start := time.Now()
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		var apiErr api.Error
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || apiErr.Code != api.CodeTooLarge || apiErr.Field != tc.field {
			t.Fatalf("%s: HTTP %d %+v, want 413 %s on %s", tc.body, resp.StatusCode, apiErr, api.CodeTooLarge, tc.field)
		}
		if took > 100*time.Millisecond {
			t.Fatalf("%s: refused after %v, want within 100ms", tc.body, took)
		}
	}
	// The bounds sit above every legitimate request: the large-DAG tier
	// builds.
	if _, err := (api.WorkflowSpec{Synthetic: &api.SyntheticSpec{Nodes: 10000}}).Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := (api.FleetSpec{Preset: "scaled", VCPUs: 1024}).Build(); err != nil {
		t.Fatal(err)
	}
}

// TestInlineDocumentTooLarge: an inline DAX document over
// api.MaxSyntheticNodes activations fits the default body bound at a
// few dozen bytes a job, and gets the same typed 413 a synthetic spec
// of that size does. The refused document is never interned.
func TestInlineDocumentTooLarge(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	var doc strings.Builder
	doc.WriteString(`<adag name="wide">`)
	for i := 0; i <= api.MaxSyntheticNodes; i++ {
		fmt.Fprintf(&doc, `<job id="j%d" name="x" runtime="1"/>`, i)
	}
	doc.WriteString(`</adag>`)
	body, err := json.Marshal(api.SubmitRequest{Workflow: api.WorkflowSpec{Format: "dax", Source: doc.String()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 8<<20 {
		t.Fatalf("body of %d bytes is over the default bound; the point is one under it", len(body))
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr api.Error
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || apiErr.Code != api.CodeTooLarge || apiErr.Field != "workflow.source" {
		t.Fatalf("HTTP %d %+v, want 413 %s on workflow.source", resp.StatusCode, apiErr, api.CodeTooLarge)
	}
	if n := s.workflows.len(); n != 0 {
		t.Fatalf("%d workflows interned after the refusal, want 0", n)
	}
}

// synthJob registers nothing: it builds a learn-only, no-warm-start
// synthetic Montage job the way handleSubmit would, the workflow and
// fleet through the server's intern tables.
func synthJob(t *testing.T, s *Server, id string, nodes int, seed int64) *job {
	t.Helper()
	req := api.SubmitRequest{
		Workflow:    api.WorkflowSpec{Synthetic: &api.SyntheticSpec{Family: "montage", Nodes: nodes, Seed: seed}},
		Learn:       api.LearnSpec{Episodes: 2},
		NoWarmStart: true,
	}
	w, err := internWorkflow(s, req.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := s.fleets.build(req.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	return &job{id: id, req: req, w: w, fleet: fleet, sig: api.StructureSignature(w, fleet),
		state: api.StateQueued, submitted: time.Now()}
}

// TestRetainedHeapFlat: the daemon's heap stops growing once the
// registry holds MaxJobs finished jobs, and what each finished job
// keeps is a few kilobytes: rows, not the records of an executed
// market job; its plan, not a private copy of the workflow a
// synthetic spec generates.
func TestRetainedHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1024 jobs per variant")
	}
	for _, tc := range []struct {
		name   string
		maxKB  float64
		newJob func(t *testing.T, s *Server, id string, seed int64) *job
	}{
		{"replay-market", 8, func(t *testing.T, s *Server, id string, seed int64) *job {
			j, _ := replayJob(t, s, id, 100, seed)
			return j
		}},
		{"learn-synthetic", 16, func(t *testing.T, s *Server, id string, seed int64) *job {
			return synthJob(t, s, id, 200, seed)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRetainedHeapFlat(t, tc.maxKB, tc.newJob)
		})
	}
}

// checkRetainedHeapFlat runs 4×MaxJobs jobs from newJob, cycling over 8
// seeds, through execute and into the registry, and checks that the
// heap is flat from 2×MaxJobs on and that each registered job retains
// at most maxKB.
func checkRetainedHeapFlat(t *testing.T, maxKB float64, newJob func(t *testing.T, s *Server, id string, seed int64) *job) {
	const maxJobs = 256
	s := New(Config{MaxJobs: maxJobs})
	run := func(from, n int) {
		for i := from; i < from+n; i++ {
			j := newJob(t, s, fmt.Sprintf("j%06d", i+1), int64(i%8)+1)
			if err := s.execute(context.Background(), j); err != nil {
				t.Fatal(err)
			}
			j.state, j.finishedAt = api.StateDone, time.Now()
			s.mu.Lock()
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			s.evictLocked()
			s.mu.Unlock()
		}
	}
	heap := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	run(0, 2*maxJobs)
	at2 := heap()
	run(2*maxJobs, 2*maxJobs)
	at4 := heap()
	if len(s.jobs) != maxJobs {
		t.Fatalf("registry holds %d jobs, want %d", len(s.jobs), maxJobs)
	}
	if d := (at4 - at2) / at2; d > 0.05 || d < -0.05 {
		t.Errorf("heap %.1f MB at 2×MaxJobs, %.1f MB at 4×: %.1f%% apart, want within 5%%", at2/(1<<20), at4/(1<<20), 100*d)
	}
	// Drop the registry and see what it held.
	s.mu.Lock()
	s.jobs, s.order = map[string]*job{}, nil
	s.mu.Unlock()
	perJob := (at4 - heap()) / maxJobs
	if perJob > maxKB*1024 {
		t.Errorf("a finished job retains %.1f KB, want ≤ %.0f KB", perJob/1024, maxKB)
	}
	t.Logf("heap %.2f MB at 2×MaxJobs, %.2f MB at 4×; %.2f KB per retained job", at2/(1<<20), at4/(1<<20), perJob/1024)
}

// TestProvTableRefusesWhatRowsCannotHold: a row is 40 bytes, and a
// record it could not reproduce exactly stops the recording with an
// error, never truncated.
func TestProvTableRefusesWhatRowsCannotHold(t *testing.T) {
	if n := unsafe.Sizeof(provRow{}); n != 40 {
		t.Fatalf("provRow is %d bytes, want 40", n)
	}
	w := trace.MontageN(rand.New(rand.NewSource(1)), 20)
	a := w.ByIndex(3)
	good := provenance.Execution{WorkflowName: w.Name, RunID: "j1", TaskID: a.ID, Activity: a.Activity,
		VMID: 4, VMType: "t2.micro", ReadyAt: 1, StartAt: 2, FinishAt: 3.5, Attempts: 2, Success: true, Wall: 1_700_000_000}
	later := good
	later.Wall += 90
	rec := &provRecorder{w: w, runID: "j1"}
	rec.Add(good)
	rec.Add(later)
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	if back := renderRows(&rec.t, w, "j1"); len(back) != 2 || back[0] != good || back[1] != later {
		t.Fatalf("rows render as %+v, want %+v, %+v", back, good, later)
	}
	for name, mutate := range map[string]func(*provenance.Execution){
		"other run":          func(e *provenance.Execution) { e.RunID = "j2" },
		"other workflow":     func(e *provenance.Execution) { e.WorkflowName = "other" },
		"unknown activation": func(e *provenance.Execution) { e.TaskID = "nobody" },
		"other activity":     func(e *provenance.Execution) { e.Activity = "mystery" },
		"VM ID past int32":   func(e *provenance.Execution) { e.VMID = 1 << 40 },
		"attempts past u16":  func(e *provenance.Execution) { e.Attempts = 1 << 16 },
		"stamp far away":     func(e *provenance.Execution) { e.Wall += 1 << 40 },
	} {
		bad := later
		mutate(&bad)
		rec := &provRecorder{w: w, runID: "j1"}
		rec.Add(good)
		rec.Add(bad)
		rec.Add(later)
		if rec.err == nil {
			t.Errorf("%s: record accepted", name)
		}
		if len(rec.t.rows) != 1 {
			t.Errorf("%s: %d rows kept, want the one before the refusal", name, len(rec.t.rows))
		}
	}
}

// TestSubmitLearningParamsOutOfRange: α, γ or ε outside [0, 1] is the
// client's error, a typed 400 naming the field at submission, not a
// job accepted with 202 that then fails as internal.
func TestSubmitLearningParamsOutOfRange(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		learn api.LearnSpec
		field string
	}{
		{api.LearnSpec{Alpha: -0.1}, "learn.alpha"},
		{api.LearnSpec{Alpha: 1.5}, "learn.alpha"},
		{api.LearnSpec{Gamma: -0.1}, "learn.gamma"},
		{api.LearnSpec{Gamma: 1.5}, "learn.gamma"},
		{api.LearnSpec{Epsilon: -0.1}, "learn.epsilon"},
		{api.LearnSpec{Epsilon: 1.5}, "learn.epsilon"},
	} {
		req := smallJob(1)
		req.Learn = tc.learn
		st, resp := submit(t, url, req)
		if st != nil || resp.StatusCode != http.StatusBadRequest || resp.Err == nil ||
			resp.Err.Code != api.CodeBadRequest || resp.Err.Field != tc.field {
			t.Errorf("learn %+v: HTTP %d %+v, want 400 %s on %s", tc.learn, resp.StatusCode, resp.Err, api.CodeBadRequest, tc.field)
		}
	}
}

// internWorkflow builds spec through s's workflow intern as
// handleSubmit does: from the escaped source of its JSON form.
func internWorkflow(s *Server, spec api.WorkflowSpec) (*dag.Workflow, error) {
	body, err := json.Marshal(api.SubmitRequest{Workflow: spec})
	if err != nil {
		return nil, err
	}
	var req api.SubmitRequest
	source, err := api.DecodeSubmit(body, &req)
	if err != nil {
		return nil, err
	}
	return s.workflows.build(req.Workflow, source, new(bytes.Buffer))
}
