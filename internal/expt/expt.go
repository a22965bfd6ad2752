// Package expt is the experiment harness: it regenerates every table
// of the paper's evaluation (Tables I–V) and the ablations listed in
// DESIGN.md §5, printing them in the paper's layout via
// metrics.Table.
//
// The harness wires the full SciCumulus-RL pipeline: synthetic
// Montage trace → learning episodes in the simulator (package sim) →
// plan extraction → "real" execution on the exec master (package
// exec, in virtual time) under a fluctuation model the learner never
// saw exactly.
package expt

import (
	"fmt"
	"math/rand"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/randsrc"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
	"reassign/internal/trace"
)

// ParamGrid is the set each of α, γ, ε ranges over in the paper's
// sweep (§IV.C): 27 combinations per fleet.
var ParamGrid = []float64{0.1, 0.5, 1.0}

// Scenario identifies the three named configurations of Table V:
// C1 (α=1.0), C2 (α=0.5), C3 (α=0.1), all with γ=1.0 and ε=0.1.
type Scenario struct {
	Name  string
	Alpha float64
}

// Scenarios returns C1, C2, C3 in paper order.
func Scenarios() []Scenario {
	return []Scenario{{"C1", 1.0}, {"C2", 0.5}, {"C3", 0.1}}
}

// Options configures a harness run.
type Options struct {
	// Seed drives workflow generation, learning and fluctuations.
	Seed int64
	// Episodes per learning run (paper: 100).
	Episodes int
	// VCPUs lists the Table I fleets to use (default 16, 32, 64).
	VCPUs []int
	// Workflow overrides the default Montage 50-node instance.
	Workflow *dag.Workflow
	// TrainFluct is the fluctuation model inside the learning
	// simulator (the observable environment dynamics); nil uses
	// cloud.DefaultFluctuation.
	TrainFluct *cloud.FluctuationModel
	// ExecFluct is the "real cloud" model for the execution stage;
	// nil uses cloud.DefaultFluctuation with a different seed stream.
	ExecFluct *cloud.FluctuationModel
	// Sink, when non-nil, receives telemetry from every learning run
	// the harness performs (episodes, decisions, kernel counters). It
	// must be safe for concurrent use: RunSweep learns in parallel.
	Sink telemetry.Sink
	// Replicas > 1 runs every learning pipeline as that many parallel
	// replicas with deterministically split seeds, keeping the best
	// plan (core.WithReplicas). LearningTime then reports the
	// ensemble's wall clock.
	Replicas int
	// Hook, when non-nil, observes every simulation the harness runs
	// (e.g. the invariant auditor behind the -audit flag). It must be
	// safe for concurrent use: RunSweep learns in parallel.
	Hook sim.Hook
}

func (o Options) withDefaults() Options {
	if o.Episodes <= 0 {
		o.Episodes = 100
	}
	if len(o.VCPUs) == 0 {
		o.VCPUs = cloud.Table1VCPUs()
	}
	if o.Workflow == nil {
		rng := rand.New(randsrc.New(o.Seed))
		o.Workflow = trace.Montage50(rng)
	}
	if o.TrainFluct == nil {
		f := cloud.DefaultFluctuation()
		o.TrainFluct = &f
	}
	if o.ExecFluct == nil {
		// The "real cloud" of the execution stage throttles less than
		// the training simulator assumed. The less it throttles, the
		// closer HEFT gets on the smallest fleet (paper Table IV, 16
		// vCPUs); EXPERIMENTS.md Deviation 2 measures that band.
		f := cloud.DefaultFluctuation()
		f.MicroThrottleProb = 0.05
		f.ThrottleFactor = 2.0
		o.ExecFluct = &f
	}
	return o
}

// learn runs one ReASSIgN learning pipeline and returns its result.
// With o.Replicas > 1 it runs the replica ensemble and returns the
// best replica's result, with LearningTime replaced by the ensemble's
// wall clock (the honest Table II quantity for the parallel pipeline).
func learn(o Options, fleet *cloud.Fleet, alpha, gamma, epsilon float64) (*core.Result, error) {
	p := core.DefaultParams()
	p.Alpha, p.Gamma, p.Epsilon = alpha, gamma, epsilon
	opts := []core.Option{core.WithSeed(o.Seed), core.WithSink(o.Sink)}
	if o.Replicas > 1 {
		opts = append(opts, core.WithReplicas(o.Replicas))
	}
	l, err := core.NewLearner(core.Config{
		Workflow: o.Workflow,
		Fleet:    fleet,
		Params:   p,
		Episodes: o.Episodes,
		Sim:      sim.Config{Fluct: o.TrainFluct, Hook: o.Hook},
	}, opts...)
	if err != nil {
		return nil, err
	}
	if o.Replicas > 1 {
		rr, err := l.LearnReplicas()
		if err != nil {
			return nil, err
		}
		res := rr.BestResult()
		res.LearningTime = rr.LearningTime
		return res, nil
	}
	return l.Learn()
}

// comboKey identifies a parameter combination.
type comboKey struct{ alpha, gamma, epsilon float64 }

func (k comboKey) String() string {
	return fmt.Sprintf("α=%.1f γ=%.1f ε=%.1f", k.alpha, k.gamma, k.epsilon)
}

// grid enumerates the 27 (α, γ, ε) combinations in the paper's row
// order (α outermost, ε innermost).
func grid() []comboKey {
	var out []comboKey
	for _, a := range ParamGrid {
		for _, g := range ParamGrid {
			for _, e := range ParamGrid {
				out = append(out, comboKey{a, g, e})
			}
		}
	}
	return out
}
