package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"reassign/internal/randsrc"
	"reassign/internal/rl"
	"reassign/internal/telemetry"
)

// ReplicaResult is the outcome of LearnReplicas: every replica's full
// learning result plus the identity of the winner.
type ReplicaResult struct {
	// Results holds one Result per replica, in replica order. Each has
	// its own learned table, episode diagnostics and extracted plan.
	Results []*Result
	// Seeds are the per-replica learner seeds, deterministically split
	// from the parent Learner's seed: running a solo Learner with
	// Seeds[i] (and the matching table seed) reproduces replica i.
	Seeds []int64
	// Best indexes the winning replica: the lowest final-plan makespan,
	// ties broken by the lowest replica index.
	Best int
	// LearningTime is the wall-clock duration of the whole concurrent
	// ensemble (not the sum of per-replica times) — the Table II
	// quantity for the parallel pipeline.
	LearningTime time.Duration
}

// BestResult returns the winning replica's result.
func (r *ReplicaResult) BestResult() *Result { return r.Results[r.Best] }

// EnsembleTable merges the replica tables by entry-wise averaging
// (rl.Average) for cross-execution continuation: instead of carrying
// only the winner's table into the next execution, the consensus of
// all replicas seeds it. The seed drives materialisation of entries
// touched after the merge.
func (r *ReplicaResult) EnsembleTable(seed int64) *rl.Table {
	tables := make([]*rl.Table, len(r.Results))
	for i, res := range r.Results {
		tables[i] = res.Table
	}
	return rl.Average(rand.New(randsrc.New(seed)), tables...)
}

// LearnReplicas runs the learner's replica ensemble: K independent
// learners (K = WithReplicas, default 1), each with its own seed,
// Q table and simulation engine, concurrently. The seeds are split
// from the learner's seed up front via one deterministic rng stream, so the
// ensemble's results are bit-identical for any GOMAXPROCS setting —
// parallelism changes wall-clock time, never the outcome.
//
// When the learner continues from a table (WithTable), each replica
// learns on its own deep copy; the shared table is never written.
// Telemetry events fan into the learner's sink labelled with their
// replica number (sinks must be safe for concurrent use, which all
// built-in sinks are).
func (l *Learner) LearnReplicas() (*ReplicaResult, error) {
	k := l.replicas
	if k < 1 {
		k = 1
	}
	// Split the seed stream before spawning anything: replica i's
	// seeds depend only on l.seed and i, never on scheduling order.
	// The table seed is drawn even when unused (no continuation table)
	// so the split is stable across both modes.
	rng := rand.New(randsrc.New(l.seed))
	learnSeeds := make([]int64, k)
	tableSeeds := make([]int64, k)
	for i := 0; i < k; i++ {
		learnSeeds[i] = rng.Int63()
		tableSeeds[i] = rng.Int63()
	}

	rr := &ReplicaResult{
		Results: make([]*Result, k),
		Seeds:   learnSeeds,
	}
	errs := make([]error, k)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		sub := &Learner{
			workflow:        l.workflow,
			fleet:           l.fleet,
			params:          l.params,
			episodes:        l.episodes,
			simConfig:       l.simConfig,
			seed:            learnSeeds[i],
			alphaSchedule:   l.alphaSchedule,
			epsilonSchedule: l.epsilonSchedule,
			sink:            telemetry.WithReplicaLabel(l.sink, i),
			ctx:             l.ctx,
			enginePool:      l.enginePool,
		}
		if l.table != nil {
			// Own copy per replica: concurrent TD updates must not share
			// a table, and the caller's table must survive unchanged.
			sub.table = l.table.Copy(rand.New(randsrc.New(tableSeeds[i])))
		}
		wg.Add(1)
		go func(i int, sub *Learner) {
			defer wg.Done()
			res, err := sub.Learn()
			if err != nil {
				errs[i] = fmt.Errorf("core: replica %d (seed %d): %w", i, sub.seed, err)
				return
			}
			rr.Results[i] = res
		}(i, sub)
	}
	wg.Wait()
	rr.LearningTime = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, res := range rr.Results {
		if res.PlanMakespan < rr.Results[rr.Best].PlanMakespan {
			rr.Best = i
		}
	}
	return rr, nil
}
