package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
	"reassign/internal/market"
	"reassign/internal/provenance"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
)

// mirror replays jobs single-threaded through the same public calls,
// in the same order, as schedd's submit handler and execute, with a
// span around each. It exists because this change may not put spans
// inside the program: the daemon's own timestamps give queue wait and
// run time, the mirror says which layer the run time went to. The
// test holds it to the daemon — same cache-hit flag, episode count
// and plan for the same request sequence.
type mirror struct {
	rec    *recorder
	tables map[string]*rl.Table // schedd's warm Q-table cache, by structure signature
	pool   *sim.Pool
	agg    *telemetry.Aggregator
	sink   *countingSink
	times  map[string][]float64 // span name → one duration (ms) per job that ran it

	jobs                         int
	episodes, actEpisodes        float64
	tableEntries                 []float64
	traceEvents, cost, records   []float64
	preempted, remediated, tasks float64
	simSeconds, execRunSeconds   float64
}

// countingSink is the benchmark-owned telemetry sink: the aggregator
// schedd would use, plus a count of events.
type countingSink struct {
	agg *telemetry.Aggregator
	n   atomic.Int64
}

func (s *countingSink) Emit(e telemetry.Event) {
	s.n.Add(1)
	s.agg.Emit(e)
}

func newMirror(rec *recorder) *mirror {
	agg := telemetry.NewAggregator()
	return &mirror{
		rec: rec, tables: map[string]*rl.Table{}, pool: sim.NewPool(),
		agg: agg, sink: &countingSink{agg: agg}, times: map[string][]float64{},
	}
}

// mirrorJob is what the test compares with the HTTP path.
type mirrorJob struct {
	cacheHit bool
	episodes int
	planHash uint64
}

// stepFunc times one call into a layer as a child span of the job.
type stepFunc func(name string, fn func() error) (time.Duration, error)

func (m *mirror) job(id string, body []byte) (out mirrorJob, err error) {
	ctx := context.Background()
	root := m.rec.reserve(id, "job", time.Now())
	defer func() { m.rec.finish(root, time.Now()) }()
	step := func(name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		m.rec.add(root, id, name, t0, t1)
		m.times[name] = append(m.times[name], ms(t1.Sub(t0)))
		if err != nil {
			err = fmt.Errorf("mirror %s: %s: %w", id, name, err)
		}
		return t1.Sub(t0), err
	}

	// The submit handler.
	var req api.SubmitRequest
	var w *dag.Workflow
	var fleet *cloud.Fleet
	var sig string
	if _, err = step("api.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
		return out, err
	}
	if _, err = step("api.build_workflow", func() (e error) { w, e = req.Workflow.Build(); return e }); err != nil {
		return out, err
	}
	if _, err = step("api.build_fleet", func() (e error) { fleet, e = req.Fleet.Build(); return e }); err != nil {
		return out, err
	}
	if req.Plan != nil {
		if _, err = step("core.plan_validate", func() error { return req.Plan.Plan.Validate(w, fleet) }); err != nil {
			return out, err
		}
	}
	step("api.signature", func() error { sig = api.StructureSignature(w, fleet); return nil })

	// execute: replay the submitted plan, or learn one.
	st := api.JobStatus{
		SchemaVersion: api.SchemaVersion, ID: id, State: api.StateDone,
		Workflow: w.Name, Activations: w.Len(), Fleet: fleet.Name, VMs: fleet.Len(),
	}
	if req.Plan != nil {
		took, err := step("sim.replay", func() error {
			eng, err := m.pool.Acquire(w, fleet, &sched.Plan{PlanName: "submitted", Assign: req.Plan.Plan.Map()},
				sim.Config{Seed: req.Seed, Sink: m.sink, Ctx: ctx})
			if err != nil {
				return err
			}
			res, err := eng.Run()
			if err == nil {
				st.Plan = api.NewPlanDocument(w.Name, fleet.Name, res.Makespan, req.Plan.Plan)
			}
			m.pool.Put(eng)
			return err
		})
		if err != nil {
			return out, err
		}
		m.simSeconds += took.Seconds()
	} else {
		opts := []core.Option{core.WithSeed(req.Seed), core.WithSink(m.sink), core.WithEnginePool(m.pool), core.WithContext(ctx)}
		if cached := m.tables[sig]; cached != nil && !req.NoWarmStart {
			var t *rl.Table
			step("rl.table_copy", func() error { t = cached.Copy(rand.New(rand.NewSource(req.Seed))); return nil })
			m.tableEntries = append(m.tableEntries, float64(t.Len()))
			opts = append(opts, core.WithTable(t))
			out.cacheHit = true
		}
		var learner *core.Learner
		_, err = step("core.new_learner", func() (e error) {
			learner, e = core.NewLearner(core.Config{
				Workflow: w, Fleet: fleet, Params: core.DefaultParams(), Episodes: req.Learn.Episodes,
			}, opts...)
			return e
		})
		if err != nil {
			return out, err
		}
		var res *core.Result
		took, err := step("core.learn", func() (e error) { res, e = learner.Learn(); return e })
		if err != nil {
			return out, err
		}
		m.simSeconds += took.Seconds()
		m.tables[sig] = res.Table
		st.Plan = api.NewPlanDocument(w.Name, fleet.Name, res.PlanMakespan, res.Plan)
		st.Episodes, st.CacheHit, st.LearningSeconds = len(res.Episodes), out.cacheHit, res.LearningTime.Seconds()
		m.episodes += float64(len(res.Episodes))
		m.actEpisodes += float64(len(res.Episodes) * w.Len())
	}
	out.episodes, out.planHash = st.Episodes, hashPlan(st.Plan.Plan)

	if req.Execute {
		if err = m.execute(ctx, step, &req, w, fleet, &st); err != nil {
			return out, err
		}
	}
	_, err = step("api.encode_status", func() error {
		enc := json.NewEncoder(io.Discard) // the HTTP response writer's stand-in
		enc.SetIndent("", " ")
		return enc.Encode(&st)
	})
	m.jobs++
	return out, err
}

// execute is the tail of schedd's execute for jobs submitted with
// Execute: the virtual-time master over InProc, under the job's
// generated market trace when it asks for one.
func (m *mirror) execute(ctx context.Context, step stepFunc,
	req *api.SubmitRequest, w *dag.Workflow, fleet *cloud.Fleet, st *api.JobStatus) error {
	store := provenance.NewStore()
	var tr exec.Transport = &exec.InProc{Workers: min(fleet.Len(), 8), Runner: exec.SimRunner{Seed: req.Seed + 2000}}
	opts := []exec.Option{exec.WithStore(store, st.ID), exec.WithSink(m.sink)}
	var pb *market.Playback
	if req.Market != nil {
		regime, ok := market.RegimeByName(req.Market.Regime)
		if !ok {
			return fmt.Errorf("mirror %s: unknown regime %q", st.ID, req.Market.Regime)
		}
		var trc *market.Trace
		_, err := step("market.generate", func() (e error) {
			trc, e = market.Generate(market.DefaultCatalogue(), fleet, regime, req.Seed+4000, 3600)
			return e
		})
		if err != nil {
			return err
		}
		if _, err = step("market.playback", func() (e error) { pb, e = market.NewPlayback(trc, nil); return e }); err != nil {
			return err
		}
		m.traceEvents = append(m.traceEvents, float64(len(trc.Events)))
		tr = exec.NewMarketFeed(tr, pb)
		opts = append(opts, exec.WithMarket(pb))
	}
	var master *exec.Master
	if _, err := step("exec.new", func() (e error) { master, e = exec.New(w, fleet, st.Plan.Plan, tr, opts...); return e }); err != nil {
		return err
	}
	var rep *exec.Report
	took, err := step("exec.run", func() (e error) { rep, e = master.Run(ctx); return e })
	if err != nil {
		return err
	}
	m.execRunSeconds += took.Seconds()
	step("provenance.all", func() error { st.Provenance = store.All(); return nil })
	st.ExecMakespanSeconds = rep.Makespan
	m.tasks += float64(rep.Done)
	m.records = append(m.records, float64(len(st.Provenance)))
	if pb != nil {
		st.MarketCostUSD, st.Preemptions = rep.Cost, rep.Preempted
		m.cost = append(m.cost, rep.Cost)
		m.preempted += float64(rep.Preempted)
		m.remediated += float64(rep.Remediated)
	}
	return nil
}

// spanMetrics maps the mirror's spans to the per-layer metric each
// feeds (the median over the sampled jobs). inExecute marks the ones
// that run inside schedd's execute, i.e. inside the daemon's
// started_at → finished_at.
var spanMetrics = []struct {
	span, metric string
	inExecute    bool
}{
	{"api.decode", "api.decode_ms", false},
	{"api.build_workflow", "api.build_workflow_ms", false},
	{"api.build_fleet", "api.build_fleet_ms", false},
	{"core.plan_validate", "core.plan_validate_ms", false},
	{"api.signature", "api.signature_ms", false},
	{"rl.table_copy", "rl.table_copy_ms", true},
	{"core.new_learner", "core.new_learner_ms", true},
	{"core.learn", "core.learn_ms", true},
	{"sim.replay", "sim.replay_ms", true},
	{"market.generate", "market.generate_ms", true},
	{"market.playback", "market.playback_ms", true},
	{"exec.new", "exec.new_ms", true},
	{"exec.run", "exec.run_ms", true},
	{"provenance.all", "provenance.all_ms", true},
	{"api.encode_status", "api.encode_status_ms", false},
}

// metrics fills the per-layer metrics the mirror owns and returns the
// sum of the medians of the spans inside execute.
func (m *mirror) metrics(out map[string]float64) (insideExecute float64) {
	for _, sm := range spanMetrics {
		out[sm.metric] = quantile(m.times[sm.span], 0.5)
		if sm.inExecute {
			insideExecute += out[sm.metric]
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	learnSeconds := 0.0
	for _, x := range m.times["core.learn"] {
		learnSeconds += x / 1000
	}
	snap := m.agg.Snapshot()
	reused, fresh := m.pool.Stats()
	jobs := float64(m.jobs)
	out["rl.table_entries"] = mean(m.tableEntries)
	out["core.episodes_per_s"] = ratio(m.episodes, learnSeconds)
	out["core.act_episodes_per_s"] = ratio(m.actEpisodes, learnSeconds)
	out["sim.events_per_s"] = ratio(float64(snap.KernelEvents), m.simSeconds)
	out["sim.pool_reuse_share"] = ratio(float64(reused), float64(reused+fresh))
	out["des.events_per_episode"] = ratio(float64(snap.KernelEvents), float64(snap.SimRuns))
	out["des.freelist_hit_rate"] = snap.FreelistHitRate()
	out["market.events_per_trace"] = mean(m.traceEvents)
	out["market.cost_usd_per_job"] = mean(m.cost)
	out["exec.tasks_per_s"] = ratio(m.tasks, m.execRunSeconds)
	out["exec.preempted_per_job"] = ratio(m.preempted, jobs)
	out["exec.remediated_per_job"] = ratio(m.remediated, jobs)
	out["provenance.records_per_job"] = mean(m.records)
	out["telemetry.events_per_job"] = ratio(float64(m.sink.n.Load()), jobs)

	var snaps []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		m.agg.Snapshot()
		snaps = append(snaps, ms(time.Since(t0)))
	}
	out["telemetry.snapshot_ms"] = quantile(snaps, 0.5)
	const emits = 100_000
	agg := telemetry.NewAggregator()
	t0 := time.Now()
	for i := 0; i < emits; i++ {
		agg.Emit(telemetry.EpisodeEvent{Episode: i, Reward: 1, Makespan: 1})
	}
	out["telemetry.emit_ns"] = float64(time.Since(t0).Nanoseconds()) / emits
	return insideExecute
}
