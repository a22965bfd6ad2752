package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/provenance"
	"reassign/internal/randsrc"
	"reassign/internal/rl"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
)

// Learner drives the two-stage pipeline of §III.D: stage one runs
// Config.Episodes simulated executions of the workflow, each an RL episode
// updating a shared Q table; stage two extracts the final scheduling
// plan greedily from the learned table. The plan is then handed to
// the exec master (package exec) for the "real" run.
//
// Construct Learners with NewLearner, which validates the inputs and
// exposes seed, telemetry and schedules as options.
type Learner struct {
	workflow *dag.Workflow
	fleet    *cloud.Fleet
	params   Params
	// episodes is the number of learning episodes (the paper uses 100).
	episodes int
	// simConfig configures the learning simulator (WorkflowSim stage).
	simConfig sim.Config
	// seed drives Q initialisation and exploration.
	seed int64
	// table, when non-nil, continues learning from a previous run
	// (the paper's provenance-backed cross-execution learning).
	table *rl.Table
	// alphaSchedule and epsilonSchedule, when non-nil, override the
	// fixed α and ε per episode (e.g. rl.ExpDecay to explore early and
	// exploit late — an extension over the paper's constants).
	alphaSchedule   rl.Schedule
	epsilonSchedule rl.Schedule
	// seedStore, set by WithProvenanceSeed, becomes table once every
	// option is applied.
	seedStore *provenance.Store

	// tableB is the DoubleQ second table, persisted across this
	// learner's episodes.
	tableB *rl.Table
	// sink receives telemetry events when set (WithSink); nil keeps
	// the hot path allocation-free.
	sink telemetry.Sink
	// episodeEv is the one EpisodeEvent every episode (and the
	// extraction pass) emits a pointer to, so an episode boxes no event.
	episodeEv telemetry.EpisodeEvent
	// replicas > 1 makes Learn run that many concurrent learners and
	// keep the best plan (WithReplicas / LearnReplicas).
	replicas int
	// ctx cancels learning between episodes when set (WithContext).
	ctx context.Context
	// enginePool, when set, sources simulation engines from a shared
	// pool instead of constructing per run (WithEnginePool) — the
	// daemon path, where many jobs reuse warm engines.
	enginePool *sim.Pool
}

// EpisodeStats records one learning episode.
type EpisodeStats struct {
	Episode  int
	Makespan float64
	Reward   float64 // accumulated crisp reward
	State    sim.WorkflowState
}

// Result is the outcome of Learn.
type Result struct {
	// Table is the learned Q table (shared with the Learner).
	Table *rl.Table
	// Episodes holds per-episode diagnostics, in order.
	Episodes []EpisodeStats
	// LearningTime is the wall-clock duration of the episode loop —
	// the quantity in the paper's Table II.
	LearningTime time.Duration
	// Plan is the final activation→VM scheduling plan extracted
	// greedily from the learned table.
	Plan Plan
	// PlanMakespan is the simulated execution time of the final plan
	// — the quantity in the paper's Table III.
	PlanMakespan float64
	// BestEpisodeMakespan is the best makespan observed while
	// learning.
	BestEpisodeMakespan float64
}

// Learn runs the episode loop and extracts the final plan. With
// WithReplicas(k>1) it instead runs k concurrent learners and returns
// the best replica's result (LearnReplicas exposes the full ensemble).
func (l *Learner) Learn() (*Result, error) {
	if l.replicas > 1 {
		rr, err := l.LearnReplicas()
		if err != nil {
			return nil, err
		}
		return rr.BestResult(), nil
	}
	rng := rand.New(randsrc.New(l.seed))
	table := l.table
	if table == nil {
		// Algorithm 2: "Start Q(s,a) at random". The learner knows the
		// action space up front — Workflow.Len() activations × the
		// fleet's VM IDs — so the table is sized to it.
		table = rl.NewTable(l.workflow.Len(), len(l.fleet.VMs), rand.New(randsrc.New(rng.Int63())), 1.0)
	}

	res := &Result{
		Table:               table,
		Episodes:            make([]EpisodeStats, 0, l.episodes),
		BestEpisodeMakespan: math.Inf(1),
	}
	start := time.Now()
	// One agent serves every episode: Prepare resets per-episode state
	// and reset re-seeds exploration, so the scratch buffers sized on
	// episode 0 are reused for the rest of the loop. Likewise one sim
	// engine serves every episode, Reset between runs.
	var agent *Scheduler
	var eng *sim.Engine
	// Pooled engines go back even on error paths; the deferred Put is
	// idempotent through the nil check after the manual release below.
	defer func() {
		if l.enginePool != nil && eng != nil {
			l.enginePool.Put(eng)
		}
	}()
	for ep := 0; ep < l.episodes; ep++ {
		if l.ctx != nil {
			if err := l.ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: learning canceled at episode %d: %w", ep, err)
			}
		}
		params := l.params
		if l.alphaSchedule != nil {
			params.Alpha = l.alphaSchedule.At(ep)
		}
		// The ε schedule feeds the default ε-greedy policy; an explicit
		// Params.Policy takes precedence and ignores it.
		if l.epsilonSchedule != nil && params.Policy == nil {
			params.Epsilon = l.epsilonSchedule.At(ep)
		}
		seed := rng.Int63()
		var err error
		if agent == nil {
			agent, err = NewScheduler(params, table, rand.New(randsrc.New(seed)))
		} else {
			err = agent.reset(params, seed)
		}
		if err != nil {
			return nil, err
		}
		if params.Rule == DoubleQ {
			if l.tableB == nil {
				l.tableB = rl.NewTable(l.workflow.Len(), len(l.fleet.VMs), rand.New(randsrc.New(rng.Int63())), 1.0)
			}
			agent.WithSecondTable(l.tableB)
		}
		agent.instrument(l.sink, ep)
		cfg := l.simConfig
		cfg.Seed = rng.Int63()
		// The episode loop only reads makespan and reward; skip the
		// per-episode plan map (plan extraction runs with it on).
		cfg.SkipPlan = true
		if cfg.Sink == nil {
			cfg.Sink = l.sink
		}
		// Cancellation reaches inside the episode too: a single huge-DAG
		// episode aborts at its next scheduling cycle instead of holding
		// the learner (and a daemon shutdown) until it finishes.
		if cfg.Ctx == nil {
			cfg.Ctx = l.ctx
		}
		var simRes *sim.Result
		if eng == nil {
			if l.enginePool != nil {
				eng, err = l.enginePool.Acquire(l.workflow, l.fleet, agent, cfg)
			} else {
				eng, err = sim.NewEngine(l.workflow, l.fleet, agent, cfg)
			}
		} else {
			eng.Reset(cfg)
		}
		if err == nil {
			simRes, err = eng.Run()
		}
		if err != nil {
			return nil, fmt.Errorf("core: episode %d: %w", ep, err)
		}
		res.Episodes = append(res.Episodes, EpisodeStats{
			Episode:  ep,
			Makespan: simRes.Makespan,
			Reward:   agent.EpisodeReward(),
			State:    simRes.State,
		})
		if l.sink != nil {
			l.episodeEv = telemetry.EpisodeEvent{
				Episode:          ep,
				Makespan:         simRes.Makespan,
				Reward:           agent.EpisodeReward(),
				Alpha:            params.Alpha,
				Epsilon:          params.Epsilon,
				QDelta:           math.Sqrt(agent.qDeltaSq),
				Updates:          agent.updates,
				State:            simRes.State.String(),
				Decisions:        simRes.Decisions,
				Events:           simRes.Events,
				Placements:       agent.placements(),
				GreedyPlacements: agent.greedy,
			}
			l.sink.Emit(&l.episodeEv)
		}
		if simRes.State == sim.FinishedOK && simRes.Makespan < res.BestEpisodeMakespan {
			res.BestEpisodeMakespan = simRes.Makespan
		}
	}
	if l.enginePool != nil && eng != nil {
		// Hand the episode engine back before extraction so the
		// extraction run can rebind it instead of building another.
		l.enginePool.Put(eng)
		eng = nil
	}
	res.LearningTime = time.Since(start)

	plan, makespan, err := l.ExtractPlan(table)
	if err != nil {
		return nil, err
	}
	res.Plan = plan
	res.PlanMakespan = makespan
	return res, nil
}

// ExtractPlan runs one greedy (pure-exploitation, no-update) episode
// against the table and returns the resulting activation→VM plan and
// its simulated makespan.
func (l *Learner) ExtractPlan(table *rl.Table) (Plan, float64, error) {
	agent, err := NewPlanExtractor(l.params, table)
	if err != nil {
		return Plan{}, 0, err
	}
	// Episode -1 marks the extraction pass on its events; the
	// aggregator counts its placements but excludes it from the
	// learning-curve series.
	agent.instrument(l.sink, -1)
	cfg := l.simConfig
	cfg.Seed = l.seed
	if cfg.Sink == nil {
		cfg.Sink = l.sink
	}
	var simRes *sim.Result
	if l.enginePool != nil {
		eng, aerr := l.enginePool.Acquire(l.workflow, l.fleet, agent, cfg)
		if aerr == nil {
			simRes, aerr = eng.Run()
			// The Result borrows engine buffers, so the engine is only
			// returned after everything needed is read — see below. The
			// plan map itself is freshly built per run and safe to keep.
			defer l.enginePool.Put(eng)
		}
		err = aerr
	} else {
		simRes, err = sim.Run(l.workflow, l.fleet, agent, cfg)
	}
	if err != nil {
		return Plan{}, 0, fmt.Errorf("core: plan extraction: %w", err)
	}
	if simRes.State != sim.FinishedOK {
		return Plan{}, 0, fmt.Errorf("core: plan extraction ended in state %v", simRes.State)
	}
	if l.sink != nil {
		l.episodeEv = telemetry.EpisodeEvent{
			Episode:          -1,
			Makespan:         simRes.Makespan,
			Reward:           agent.EpisodeReward(),
			Alpha:            l.params.Alpha,
			Epsilon:          l.params.Epsilon,
			State:            simRes.State.String(),
			Decisions:        simRes.Decisions,
			Events:           simRes.Events,
			Placements:       agent.placements(),
			GreedyPlacements: agent.greedy,
		}
		l.sink.Emit(&l.episodeEv)
	}
	return NewPlan(simRes.Plan), simRes.Makespan, nil
}
