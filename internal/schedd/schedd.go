// Package schedd is the scheduler-as-a-service control plane: a
// long-running daemon that serves the learn→plan→execute pipeline to
// many concurrent clients over a versioned HTTP/JSON API (package
// api).
//
// Architecture: submissions are admitted into a bounded queue (a full
// queue rejects with 429 — the service degrades by shedding load, not
// by growing unboundedly) and drained by a fixed pool of workers. The
// submission handler builds the workflow and fleet from the request's
// specs — the workflow through the content-addressed intern table
// (workflowIntern), keyed by an inline document's bytes or a synthetic
// spec's canonical form, so a resubmitted DAG is parsed or generated
// once and shared read-only, and the fleet through fleetIntern by its
// spec's canonical form. Each worker runs one job at a time: learn a plan
// with core.NewLearner — drawing simulation engines from a shared
// sync.Pool of Reset-able sim.Engines and warm-starting from the
// Q-table cache when a job with the same workflow-structure signature
// has run before — then optionally execute the plan on the
// virtual-time master for provenance. Learned tables go back into the
// cache, so a steady stream of structurally similar workflows keeps
// improving its plans across requests (the paper's cross-execution
// learning, served).
//
// Endpoints:
//
//	POST /v1/jobs            submit a workflow + fleet (202, api.JobStatus)
//	GET  /v1/jobs            list job summaries
//	GET  /v1/jobs/{id}       status, plan, provenance
//	POST /v1/jobs/{id}/cancel
//	GET  /healthz            liveness
//	GET  /metrics            Prometheus text: learning telemetry + daemon counters
package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"reassign/internal/api"
	"reassign/internal/market"
	"reassign/internal/metrics"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
)

// Config tunes the daemon. The zero value is serviceable: GOMAXPROCS
// workers, a 256-deep admission queue, 4096 retained jobs.
type Config struct {
	// Workers is the number of concurrent job executors (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it
	// are rejected with 429 (default 256).
	QueueDepth int
	// MaxJobs bounds retained job records; the oldest finished jobs
	// are evicted beyond it (default 4096).
	MaxJobs int
	// CacheEntries bounds the warm Q-table cache and, separately, the
	// workflow and fleet intern tables (default 512 each).
	CacheEntries int
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// DefaultEpisodes applies when a submission leaves Episodes zero
	// (default core.DefaultEpisodes via the learner).
	DefaultEpisodes int
	// LatencyWindow bounds the retained submit→finish latency samples
	// (global and per tenant) feeding the /metrics percentiles; older
	// samples are overwritten (default 8192).
	LatencyWindow int
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.LatencyWindow <= 0 {
		c.LatencyWindow = 8192
	}
}

// Server is the daemon: an admission queue, a worker pool, the warm
// Q-table cache, the shared simulation-engine pool, and the job
// registry behind the HTTP API. Construct with New, launch the
// workers with Start, and stop with Shutdown.
type Server struct {
	cfg       Config
	queue     chan *job
	cache     tableCache
	workflows workflowIntern
	fleets    fleetIntern
	pool      *sim.Pool
	agg       *telemetry.Aggregator

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing and eviction

	tenants *tenantTracker // the job ledger: lifecycle counts and latencies, per tenant and in total
	markets *marketTracker

	seq      atomic.Int64
	panicked atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// testHook, when set (tests only), runs at the start of every
	// job's execution — a seam for holding workers to fill the queue.
	testHook func(*job)
	// testSubmitHook, when set (tests only), runs between a
	// submission's registry insert and its queue send — the window
	// where a concurrent submission can register behind it.
	testSubmitHook func(*job)
}

// New builds a stopped server; Start launches the worker pool.
func New(cfg Config) *Server {
	cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:       cfg,
		queue:     make(chan *job, cfg.QueueDepth),
		cache:     newTableCache(cfg.CacheEntries),
		workflows: newWorkflowIntern(cfg.CacheEntries),
		fleets:    newFleetIntern(cfg.CacheEntries),
		pool:      sim.NewPool(),
		agg:       telemetry.NewAggregator(),
		jobs:      make(map[string]*job),
		tenants:   newTenantTracker(cfg.LatencyWindow),
		markets:   newMarketTracker(),
		baseCtx:   ctx,
		cancel:    cancel,
	}
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.baseCtx.Done():
					return
				case j := <-s.queue:
					s.runJob(j)
				}
			}
		}()
	}
}

// Shutdown stops the daemon: new submissions are rejected with 503,
// running jobs are canceled, and the workers are awaited (bounded by
// ctx). It returns ctx.Err() if the workers did not drain in time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// bodyPool recycles handleSubmit's read buffers. A buffer that grew
// past maxPooledBody for one outsized request is dropped instead of
// pinning that much memory in the pool.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// respPool recycles the buffers status, submit, cancel and list
// responses are written into, with the same bound as bodyPool.
var respPool = sync.Pool{New: func() any { return new([]byte) }}

// writeBody serves the document body appends: the job responses'
// path, which writes through the api package's writers, not by
// reflection. A document that cannot be written — a NaN or an
// infinity, which JSON cannot carry — is a typed 500, not a 200 with
// an empty body.
func writeBody(w http.ResponseWriter, status int, body func([]byte) ([]byte, error)) {
	bp := respPool.Get().(*[]byte)
	b, err := body((*bp)[:0])
	if err != nil {
		writeErr(w, api.Errorf(api.CodeInternal, "", "encoding response: %v", err))
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*bp = b
		respPool.Put(bp)
	}
}

// writeJSON serves v as compact JSON: one line and a newline. Errors,
// healthz and the rest take this path.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps a typed api.Error (converting anything else via
// api.FromError) to its HTTP status and serves it as the body.
func writeErr(w http.ResponseWriter, err error) {
	apiErr := api.FromError(err)
	writeJSON(w, apiErr.HTTPStatus(), apiErr)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, api.Errorf(api.CodeUnavailable, "", "daemon is shutting down"))
		return
	}
	// Read the whole body into a pooled buffer sized from
	// Content-Length, then decode it in one pass (api.DecodeSubmit),
	// which rejects bytes after the top-level value. Every string in req
	// is a copy; the workflow source alone stays in buf, escaped, for
	// the intern to key on, so nothing in req aliases buf once it goes
	// back to the pool.
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		// Content-Length is a claim, not bytes received: pre-size no
		// further than a buffer the pool would keep, and let a larger
		// body grow the buffer as it actually arrives.
		buf.Grow(int(min(n, maxPooledBody-bytes.MinRead)) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	var req api.SubmitRequest
	var source []byte
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		source, err = api.DecodeSubmit(buf.Bytes(), &req)
	}
	if err != nil {
		// An oversized body surfaces as *http.MaxBytesError mid-read;
		// that is a 413 with its own code (the client must shrink the
		// document, not fix its syntax), not a generic 400.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, api.Errorf(api.CodeTooLarge, "",
				"request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeErr(w, api.Errorf(api.CodeBadRequest, "", "decoding request: %v", err))
		return
	}
	if err := api.CheckSchemaVersion(req.SchemaVersion); err != nil {
		writeErr(w, err)
		return
	}
	if req.Plan != nil {
		if err := api.CheckSchemaVersion(req.Plan.SchemaVersion); err != nil {
			apiErr := api.FromError(err)
			apiErr.Field = "plan." + apiErr.Field
			writeErr(w, apiErr)
			return
		}
	}
	if req.Learn.Episodes < 0 {
		writeErr(w, api.Errorf(api.CodeBadRequest, "learn.episodes",
			"negative episode budget %d", req.Learn.Episodes))
		return
	}
	if req.Learn.Replicas < 0 {
		writeErr(w, api.Errorf(api.CodeBadRequest, "learn.replicas",
			"negative replica count %d", req.Learn.Replicas))
		return
	}
	if req.Learn.Replicas > api.MaxLearnReplicas {
		writeErr(w, api.Errorf(api.CodeTooLarge, "learn.replicas",
			"%d replicas exceed the bound of %d", req.Learn.Replicas, api.MaxLearnReplicas))
		return
	}
	if k := max(req.Learn.Replicas, 1); req.Learn.Episodes > api.MaxLearnEpisodes/k {
		writeErr(w, api.Errorf(api.CodeTooLarge, "learn.episodes",
			"%d episodes × %d replicas exceed the bound of %d episodes", req.Learn.Episodes, k, api.MaxLearnEpisodes))
		return
	}
	if _, err := learnParams(req.Learn); err != nil {
		writeErr(w, err)
		return
	}
	if req.DeadlineSeconds < 0 {
		writeErr(w, api.Errorf(api.CodeBadRequest, "deadline_seconds",
			"negative deadline %v", req.DeadlineSeconds))
		return
	}
	if req.Market != nil {
		if !req.Execute {
			writeErr(w, api.Errorf(api.CodeBadRequest, "market",
				"market replay requires execute"))
			return
		}
		if _, ok := market.RegimeByName(req.Market.Regime); !ok {
			writeErr(w, api.Errorf(api.CodeBadRequest, "market.regime",
				"unknown market regime %q", req.Market.Regime))
			return
		}
		if req.Market.Horizon < 0 {
			writeErr(w, api.Errorf(api.CodeBadRequest, "market.horizon",
				"negative horizon %v", req.Market.Horizon))
			return
		}
		if req.Market.Horizon > api.MaxMarketHorizon {
			writeErr(w, api.Errorf(api.CodeTooLarge, "market.horizon",
				"horizon %v s exceeds the bound of %d s", req.Market.Horizon, api.MaxMarketHorizon))
			return
		}
	}
	// Build the inputs synchronously so malformed documents fail the
	// submission itself (400), not the job later. build may overwrite
	// buf with its hash input, so nothing after this call reads buf or
	// source. The job keeps the built workflow, not the document.
	wf, err := s.workflows.build(req.Workflow, source, buf)
	if err != nil {
		writeErr(w, err)
		return
	}
	fleet, err := s.fleets.build(req.Fleet)
	if err != nil {
		writeErr(w, err)
		return
	}
	// A submitted plan is validated here (a typed *core.PlanError → 400
	// with the offending entry) and kept as one VM per activation.
	var replay []int32
	if req.Plan != nil {
		if err := req.Plan.Plan.Validate(wf, fleet); err != nil {
			writeErr(w, err)
			return
		}
		replay = compactPlan(wf, req.Plan.Plan)
		req.Plan = nil
	}

	j := &job{
		id:        fmt.Sprintf("j%06d", s.seq.Add(1)),
		req:       req,
		w:         wf,
		fleet:     fleet,
		sig:       api.StructureSignature(wf, fleet),
		replay:    replay,
		state:     api.StateQueued,
		submitted: time.Now(),
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()

	if s.testSubmitHook != nil {
		s.testSubmitHook(j)
	}
	select {
	case s.queue <- j:
		s.tenants.add(j.req.Tenant, counts{jobsSubmitted: 1, jobsQueued: 1})
		writeBody(w, http.StatusAccepted, j.appendStatus)
	default:
		s.tenants.add(j.req.Tenant, counts{jobsRejected: 1})
		// Roll back the registration by removing this job's own ID. The
		// registry lock was released between registration and the queue
		// send, so concurrent submissions may have appended behind us —
		// blindly truncating the tail here would orphan one of *their*
		// IDs (and leak this one).
		s.mu.Lock()
		delete(s.jobs, j.id)
		for i := len(s.order) - 1; i >= 0; i-- {
			if s.order[i] == j.id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		writeErr(w, api.Errorf(api.CodeQueueFull, "",
			"admission queue full (%d queued); retry later", s.cfg.QueueDepth))
	}
}

// evictLocked drops the oldest finished jobs beyond MaxJobs. Queued
// and running jobs are never evicted.
func (s *Server) evictLocked() {
	excess := len(s.order) - s.cfg.MaxJobs
	// The steady state: the oldest jobs finished long ago, so the
	// excess pops off the head without touching the rest.
	for excess > 0 {
		j := s.jobs[s.order[0]]
		if j == nil || !j.finished() {
			break
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
		excess--
	}
	if excess <= 0 {
		return
	}
	// The head is still queued or running: scan past it for finished
	// jobs, oldest first.
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.finished() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]*api.JobStatus, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			out = append(out, j.summary())
		}
	}
	s.mu.Unlock()
	writeBody(w, http.StatusOK, func(dst []byte) ([]byte, error) { return api.AppendJSONList(dst, out) })
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, api.Errorf(api.CodeNotFound, "", "no job %q", r.PathValue("id")))
		return
	}
	writeBody(w, http.StatusOK, j.appendStatus)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, api.Errorf(api.CodeNotFound, "", "no job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	switch j.state {
	case api.StateQueued:
		// The worker that eventually pops it skips canceled jobs.
		j.state = api.StateCanceled
		j.finishedAt = time.Now()
		j.err = api.Errorf(api.CodeCanceled, "", "canceled while queued")
		latency := j.finishedAt.Sub(j.submitted).Seconds()
		deadline := j.req.DeadlineSeconds
		j.mu.Unlock()
		s.tenants.finished(j.req.Tenant, api.StateCanceled, latency, deadline, false)
	case api.StateRunning:
		cancel := j.cancelRun
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		st := j.state
		j.mu.Unlock()
		writeErr(w, api.Errorf(api.CodeConflict, "", "job is already %s", st))
		return
	}
	writeBody(w, http.StatusOK, j.appendStatus)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       !s.draining.Load(),
		"queued":   len(s.queue),
		"inflight": s.inflight.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// The learning telemetry snapshot first (episodes, decisions, DES
	// kernel counters), then the daemon's own series.
	s.agg.Snapshot().WriteProm(w)

	jobs, lat := s.tenants.totals()
	hits, misses := s.cache.stats()
	wfHits, wfMisses := s.workflows.stats()
	reused, fresh := s.pool.Stats()

	p := metrics.NewPromWriter(w)
	p.Counter("schedd_jobs_submitted_total", "Jobs admitted", jobs[jobsSubmitted])
	p.Counter("schedd_jobs_completed_total", "Jobs finished successfully", jobs[jobsCompleted])
	p.Counter("schedd_jobs_failed_total", "Jobs that failed", jobs[jobsFailed])
	p.Counter("schedd_jobs_canceled_total", "Jobs canceled", jobs[jobsCanceled])
	p.Counter("schedd_jobs_rejected_total", "Submissions rejected by the full admission queue", jobs[jobsRejected])
	p.Counter("schedd_jobs_panicked_total", "Jobs failed by a panic in their pipeline (the worker survives)", s.panicked.Load())
	p.Gauge("schedd_queue_depth", "Jobs waiting in the admission queue", len(s.queue))
	p.Gauge("schedd_queue_capacity", "Admission queue bound", s.cfg.QueueDepth)
	p.Gauge("schedd_jobs_inflight", "Jobs currently executing", s.inflight.Load())
	p.Counter("schedd_qtable_cache_hits_total", "Submissions warm-started from the Q-table cache", hits)
	p.Counter("schedd_qtable_cache_misses_total", "Submissions that learned from scratch", misses)
	p.Gauge("schedd_qtable_cache_entries", "Cached Q tables", s.cache.len())
	p.Counter("schedd_workflow_intern_hits_total", "Workflow specs served from the intern table without parsing or generating", wfHits)
	p.Counter("schedd_workflow_intern_misses_total", "Workflow spec lookups that missed the intern table (parsed or generated, or rejected)", wfMisses)
	p.Gauge("schedd_workflow_intern_entries", "Interned workflows", s.workflows.len())
	p.Counter("schedd_engine_pool_reused_total", "Sim engines served by rebinding a pooled engine", reused)
	p.Counter("schedd_engine_pool_fresh_total", "Sim engines newly constructed", fresh)
	if lat.N > 0 {
		p.Gauge("schedd_job_latency_seconds_p50", "Submit-to-finish latency (median)", lat.P50)
		p.Gauge("schedd_job_latency_seconds_p95", "Submit-to-finish latency (95th percentile)", lat.P95)
		p.Gauge("schedd_job_latency_seconds_p99", "Submit-to-finish latency (99th percentile)", lat.P99)
		p.Gauge("schedd_job_latency_seconds_mean", "Submit-to-finish latency (mean)", lat.Mean)
		p.Gauge("schedd_job_latency_seconds_max", "Submit-to-finish latency (max)", lat.Max)
	}
	s.tenants.writeProm(w)
	s.markets.writeProm(w)
}
