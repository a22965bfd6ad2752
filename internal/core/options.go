package core

import (
	"context"
	"fmt"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/rl"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
)

// DefaultEpisodes is the paper's episode budget, applied when a
// Config leaves Episodes at zero.
const DefaultEpisodes = 100

// Config carries the required inputs of a learning run. Optional
// behaviour — seed, telemetry sink, table continuation, parameter
// schedules — is supplied as Options to NewLearner.
type Config struct {
	// Workflow and Fleet are required.
	Workflow *dag.Workflow
	Fleet    *cloud.Fleet
	// Params are the learning parameters; the zero value means
	// DefaultParams() (the paper's best-performing settings).
	Params Params
	// Episodes is the learning budget: 0 defaults to DefaultEpisodes,
	// negative values are rejected.
	Episodes int
	// Sim configures the learning simulator.
	Sim sim.Config
}

// Option customises a Learner built by NewLearner.
type Option func(*Learner) error

// WithSeed sets the seed driving Q initialisation and exploration.
func WithSeed(seed int64) Option {
	return func(l *Learner) error {
		l.seed = seed
		return nil
	}
}

// WithSink installs a telemetry sink receiving per-episode stats,
// scheduler decisions and per-run DES kernel counters. A nil sink
// keeps telemetry disabled (the zero-cost default).
func WithSink(sink telemetry.Sink) Option {
	return func(l *Learner) error {
		if sink == telemetry.Discard {
			sink = nil
		}
		l.sink = sink
		return nil
	}
}

// WithTable continues learning from an existing Q table (the paper's
// provenance-backed cross-execution learning). It overrides an earlier
// WithProvenanceSeed.
func WithTable(t *rl.Table) Option {
	return func(l *Learner) error {
		if t == nil {
			return fmt.Errorf("core: WithTable(nil)")
		}
		l.table, l.seedStore = t, nil
		return nil
	}
}

// WithReplicas runs k independent learners concurrently in Learn,
// each seeded from a deterministic split of the Learner's seed, and
// keeps the best resulting plan (see LearnReplicas). k = 1 is the
// plain sequential loop. Results are bit-identical for any
// GOMAXPROCS setting.
func WithReplicas(k int) Option {
	return func(l *Learner) error {
		if k < 1 {
			return fmt.Errorf("core: WithReplicas(%d): need at least one replica", k)
		}
		l.replicas = k
		return nil
	}
}

// WithContext bounds learning by ctx: cancellation (or deadline
// expiry) is observed between episodes, aborting Learn with an error
// wrapping ctx.Err(). The default runs the full episode budget. This
// is the knob long-running services use to cancel in-flight jobs.
func WithContext(ctx context.Context) Option {
	return func(l *Learner) error {
		if ctx == nil {
			return fmt.Errorf("core: WithContext(nil)")
		}
		l.ctx = ctx
		return nil
	}
}

// WithEnginePool sources the learner's simulation engines from a
// shared sim.Pool instead of constructing them per run. Pooled
// engines are rebound to this learner's problem on acquisition and
// returned after use, so concurrent learners (e.g. a scheduling
// daemon's workers) amortise engine construction across jobs without
// perturbing results — a pooled run is bit-identical to a fresh one.
func WithEnginePool(p *sim.Pool) Option {
	return func(l *Learner) error {
		if p == nil {
			return fmt.Errorf("core: WithEnginePool(nil)")
		}
		l.enginePool = p
		return nil
	}
}

// WithAlphaSchedule overrides the fixed learning rate with a
// per-episode schedule.
func WithAlphaSchedule(s rl.Schedule) Option {
	return func(l *Learner) error {
		l.alphaSchedule = s
		return nil
	}
}

// WithEpsilonSchedule overrides the fixed exploitation probability
// with a per-episode schedule (ignored when Params.Policy is set).
func WithEpsilonSchedule(s rl.Schedule) Option {
	return func(l *Learner) error {
		l.epsilonSchedule = s
		return nil
	}
}

// NewLearner validates cfg, applies defaults (Params zero value →
// DefaultParams, Episodes 0 → DefaultEpisodes) and the options, and
// returns a ready-to-Learn Learner.
func NewLearner(cfg Config, opts ...Option) (*Learner, error) {
	if cfg.Workflow == nil || cfg.Fleet == nil {
		return nil, fmt.Errorf("core: learner needs a workflow and a fleet")
	}
	if cfg.Episodes < 0 {
		return nil, fmt.Errorf("core: negative episode budget %d", cfg.Episodes)
	}
	if cfg.Episodes == 0 {
		cfg.Episodes = DefaultEpisodes
	}
	if cfg.Params.isZero() {
		cfg.Params = DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	l := &Learner{
		workflow:  cfg.Workflow,
		fleet:     cfg.Fleet,
		params:    cfg.Params,
		episodes:  cfg.Episodes,
		simConfig: cfg.Sim,
	}
	for _, opt := range opts {
		if err := opt(l); err != nil {
			return nil, err
		}
	}
	if l.seedStore != nil {
		// Built only now, so the table's own draws follow the final seed
		// whatever the option order.
		t, err := SeedTable(l.seedStore, l.workflow, l.fleet, l.seed)
		if err != nil {
			return nil, err
		}
		l.table, l.seedStore = t, nil
	}
	return l, nil
}

// isZero reports whether p is the zero Params value (every scalar
// zero, no flags, no policy) — the signal that a Config wants the
// paper defaults. Field-by-field comparison avoids == on the Policy
// interface, which could hold a non-comparable implementation.
func (p Params) isZero() bool {
	return p.Alpha == 0 && p.Gamma == 0 && p.Epsilon == 0 &&
		p.Mu == 0 && p.Rho == 0 && !p.GammaPowerT &&
		p.Scope == AllPending && p.CostWeight == 0 &&
		p.Rule == QLearning && p.Policy == nil
}
