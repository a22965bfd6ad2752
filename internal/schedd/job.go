package schedd

import (
	"context"
	"errors"
	"sync"
	"time"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
	"reassign/internal/market"
	"reassign/internal/sched"
	"reassign/internal/sim"
)

// job is one submission's full lifecycle: queued → running →
// done/failed/canceled. The mutable state behind mu is what
// appendStatus writes for the API. A finished job keeps only
// pointer-free data beside the interned workflow and fleet it shares
// (see prov.go).
type job struct {
	id     string
	req    api.SubmitRequest // as submitted, minus the workflow source and the plan
	w      *dag.Workflow
	fleet  *cloud.Fleet
	sig    string
	replay []int32 // the submitted plan, VM per activation index; nil: learn one

	mu         sync.Mutex
	state      string
	submitted  time.Time
	started    time.Time
	finishedAt time.Time
	cancelRun  context.CancelFunc

	cacheHit       bool
	episodes       int
	learnSeconds   float64
	plan           []int32 // VM per activation index; nil until replayed or learned
	planMakespan   float64
	prov           provTable
	execMakespan   float64
	marketCost     float64
	preemptions    int
	deadlineMissed bool
	err            *api.Error
}

// finished reports whether the job reached a terminal state.
func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case api.StateDone, api.StateFailed, api.StateCanceled:
		return true
	}
	return false
}

// summary snapshots the job as an api.JobStatus without its plan and
// provenance: the GET /v1/jobs form.
func (j *job) summary() *api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.summaryLocked()
}

// appendStatus appends the job's status document, plan and provenance
// included, as api.JobStatus.AppendJSON writes it: the plan from its VM
// per activation index in the workflow's shared ID order, the
// provenance from its rows.
func (j *job) appendStatus(dst []byte) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.summaryLocked()
	var plan api.PlanEntries
	if j.plan != nil {
		st.Plan = &api.PlanDocument{
			SchemaVersion:   api.SchemaVersion,
			Workflow:        j.w.Name,
			Fleet:           j.fleet.Name,
			MakespanSeconds: j.planMakespan,
		}
		plan = planEntries{w: j.w, order: j.w.IDOrder(), vms: j.plan}
	}
	var prov api.Records
	if len(j.prov.rows) > 0 {
		prov = provRecords{t: &j.prov, w: j.w, runID: j.id}
	}
	return st.AppendJSONFrom(dst, plan, prov)
}

func (j *job) summaryLocked() *api.JobStatus {
	st := &api.JobStatus{
		SchemaVersion:       api.SchemaVersion,
		ID:                  j.id,
		State:               j.state,
		Workflow:            j.w.Name,
		Activations:         j.w.Len(),
		Fleet:               j.fleet.Name,
		VMs:                 j.fleet.Len(),
		SubmittedAt:         j.submitted.UTC().Format(time.RFC3339Nano),
		Episodes:            j.episodes,
		CacheHit:            j.cacheHit,
		LearningSeconds:     j.learnSeconds,
		ExecMakespanSeconds: j.execMakespan,
		MarketCostUSD:       j.marketCost,
		Preemptions:         j.preemptions,
		Tenant:              j.req.Tenant,
		DeadlineSeconds:     j.req.DeadlineSeconds,
		DeadlineMissed:      j.deadlineMissed,
		Error:               j.err,
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339Nano)
		st.LatencySeconds = j.finishedAt.Sub(j.submitted).Seconds()
	}
	return st
}

// runJob executes one popped job on a worker goroutine.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != api.StateQueued {
		// Canceled while queued; the cancel handler already settled it.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.state = api.StateRunning
	j.started = time.Now()
	j.cancelRun = cancel
	j.mu.Unlock()
	defer cancel()
	s.tenants.add(j.req.Tenant, counts{jobsQueued: -1, jobsRunning: 1})

	s.inflight.Add(1)
	err := s.contain(ctx, j)
	s.inflight.Add(-1)

	now := time.Now()
	j.mu.Lock()
	j.finishedAt = now
	j.cancelRun = nil
	switch {
	case err == nil:
		j.state = api.StateDone
	case errors.Is(err, context.Canceled):
		j.state = api.StateCanceled
		j.err = api.Errorf(api.CodeCanceled, "", "canceled while running")
	default:
		j.state = api.StateFailed
		j.err = api.FromError(err)
	}
	state := j.state
	latency := now.Sub(j.submitted).Seconds()
	deadline := j.req.DeadlineSeconds
	if deadline > 0 && latency > deadline {
		j.deadlineMissed = true
	}
	j.mu.Unlock()
	s.tenants.finished(j.req.Tenant, state, latency, deadline, true)
}

// contain runs the job's pipeline and turns a panic in it into the
// job's CodeInternal failure, so one bad job cannot take its worker —
// and with it a share of the daemon's capacity — down.
func (s *Server) contain(ctx context.Context, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicked.Add(1)
			err = api.Errorf(api.CodeInternal, "", "job panicked: %v", r)
		}
	}()
	if s.testHook != nil {
		s.testHook(j)
	}
	return s.execute(ctx, j)
}

// execute runs the job's pipeline: plan it, then — when the
// submission asks — execute the plan on the virtual-time master,
// recording the run's provenance as rows.
func (s *Server) execute(ctx context.Context, j *job) error {
	plan, err := s.planJob(ctx, j)
	if err != nil || !j.req.Execute {
		return err
	}
	rec := &provRecorder{w: j.w, runID: j.id}
	rep, pb, err := s.runPlan(ctx, j, plan, rec)
	if err != nil {
		return err
	}
	if err := j.keepRun(rec, rep); err != nil {
		return err
	}
	if pb != nil {
		s.markets.record(pb, rep)
	}
	return nil
}

// fluctuation is the cloud fluctuation model the submission asked for,
// or nil.
func (j *job) fluctuation() *cloud.FluctuationModel {
	if !j.req.Fluctuation {
		return nil
	}
	fm := cloud.DefaultFluctuation()
	return &fm
}

// learnParams returns a job's learning parameters: the paper's
// defaults with the request's non-zero α, γ and ε in their place. A
// value outside [0, 1] is a typed bad_request naming its field.
func learnParams(l api.LearnSpec) (core.Params, error) {
	p := core.DefaultParams()
	for _, f := range []struct {
		name string
		v    float64
		dst  *float64
	}{{"alpha", l.Alpha, &p.Alpha}, {"gamma", l.Gamma, &p.Gamma}, {"epsilon", l.Epsilon, &p.Epsilon}} {
		if f.v == 0 {
			continue
		}
		if !(f.v >= 0 && f.v <= 1) {
			return p, api.Errorf(api.CodeBadRequest, "learn."+f.name, "%s = %v outside [0, 1]", f.name, f.v)
		}
		*f.dst = f.v
	}
	return p, nil
}

// planJob replays the submitted plan, or learns one (optionally
// warm-started from the cache), and records it on the job.
func (s *Server) planJob(ctx context.Context, j *job) (core.Plan, error) {
	req := j.req
	fluct := j.fluctuation()
	var plan core.Plan
	vms, makespan := j.replay, 0.0
	if vms != nil {
		// Replay path: the plan was validated at submission; simulate it
		// for its makespan. The run carries the job's context, so cancel
		// (and daemon shutdown) aborts a replay mid-simulation instead
		// of blocking until it finishes.
		plan = expandPlan(j.w, vms)
		eng, err := s.pool.Acquire(j.w, j.fleet, &sched.Plan{
			PlanName: "submitted",
			Assign:   plan.Map(),
		}, sim.Config{Seed: req.Seed, Fluct: fluct, Sink: s.agg, Ctx: ctx, SkipPlan: true})
		if err != nil {
			return plan, err
		}
		res, err := eng.Run()
		if err == nil {
			makespan = res.Makespan // res is the engine's: read it before the engine goes back
		}
		s.pool.Put(eng)
		if err != nil {
			return plan, err
		}
	} else {
		params, err := learnParams(req.Learn)
		if err != nil {
			return plan, err
		}
		episodes := req.Learn.Episodes
		if episodes == 0 {
			episodes = s.cfg.DefaultEpisodes
		}
		opts := []core.Option{
			core.WithSeed(req.Seed),
			core.WithSink(s.agg),
			core.WithEnginePool(s.pool),
			core.WithContext(ctx),
		}
		if req.Learn.Replicas > 1 {
			opts = append(opts, core.WithReplicas(req.Learn.Replicas))
		}
		if !req.NoWarmStart {
			if t := s.cache.get(j.sig, req.Seed); t != nil {
				opts = append(opts, core.WithTable(t))
				j.mu.Lock()
				j.cacheHit = true
				j.mu.Unlock()
			}
		}
		learner, err := core.NewLearner(core.Config{
			Workflow: j.w,
			Fleet:    j.fleet,
			Params:   params,
			Episodes: episodes,
			Sim:      sim.Config{Fluct: fluct},
		}, opts...)
		if err != nil {
			return plan, err
		}
		res, err := learner.Learn()
		if err != nil {
			return plan, err
		}
		// The finished table feeds future same-structure submissions —
		// including NoWarmStart ones, which skip the read but still
		// contribute their result.
		s.cache.put(j.sig, res.Table)
		plan, vms, makespan = res.Plan, compactPlan(j.w, res.Plan), res.PlanMakespan
		j.mu.Lock()
		j.episodes = len(res.Episodes)
		j.learnSeconds = res.LearningTime.Seconds()
		j.mu.Unlock()
	}
	j.mu.Lock()
	j.plan, j.planMakespan = vms, makespan
	j.mu.Unlock()
	return plan, nil
}

// runPlan executes plan on the virtual-time master, recording into
// rec, under the job's generated market trace when it asks for one
// (pb is then that trace's playback).
func (s *Server) runPlan(ctx context.Context, j *job, plan core.Plan, rec exec.Recorder) (rep *exec.Report, pb *market.Playback, err error) {
	req := j.req
	var tr exec.Transport = &exec.InProc{
		Workers: min(j.fleet.Len(), 8),
		Runner:  exec.SimRunner{Fluct: j.fluctuation(), Seed: req.Seed + 2000},
	}
	// No sink: the aggregator counts no exec event
	// (telemetry.TestAggregatorIgnoresExecEvents).
	opts := []exec.Option{exec.WithStore(rec, j.id)}

	// Market replay: generate the trace against the job's fleet and
	// wrap the transport so traced notices, kills and health changes
	// reach the master interleaved with worker traffic.
	if req.Market != nil {
		rg, _ := market.RegimeByName(req.Market.Regime) // validated at submit
		mseed := req.Market.Seed
		if mseed == 0 {
			mseed = req.Seed + 4000
		}
		horizon := req.Market.Horizon
		if horizon == 0 {
			horizon = 3600
		}
		cat := market.DefaultCatalogue()
		trc, err := market.Generate(cat, j.fleet, rg, mseed, horizon)
		if err != nil {
			return nil, nil, err
		}
		if pb, err = market.NewPlayback(trc, cat); err != nil {
			return nil, nil, err
		}
		tr = exec.NewMarketFeed(tr, pb)
		opts = append(opts, exec.WithMarket(pb))
		if req.Market.ReactiveOnly {
			opts = append(opts, exec.WithReactiveOnly())
		}
	}

	m, err := exec.New(j.w, j.fleet, plan, tr, opts...)
	if err != nil {
		return nil, nil, err
	}
	rep, err = m.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	return rep, pb, nil
}

// keepRun records an executed run's results on the job: the rows rec
// recorded, unless a record did not fit one, its makespan and (zero
// without a market) its traced bill and preemptions.
func (j *job) keepRun(rec *provRecorder, rep *exec.Report) error {
	if rec.err != nil {
		return rec.err
	}
	j.mu.Lock()
	j.prov = rec.t
	j.execMakespan = rep.Makespan
	j.marketCost = rep.Cost
	j.preemptions = rep.Preempted
	j.mu.Unlock()
	return nil
}
