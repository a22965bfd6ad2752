// Package estimate builds activation-runtime predictors from
// provenance history — the role the paper assigns to the SciCumulus
// provenance database ("such information can be used in future
// executions").
//
// The estimator aggregates observed execution times per
// (activity, VM type) and predicts with a hierarchy of fallbacks:
// exact (activity, type) mean → activity mean scaled by type speed →
// the activation's nominal runtime. It powers the calibrated-HEFT
// baseline (sched.HEFT with Costs set), which closes part of the gap
// the paper attributes to HEFT's blindness to real VM behaviour.
package estimate

import (
	"sync"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/metrics"
	"reassign/internal/provenance"
	"reassign/internal/sim"
)

// key identifies one (activity, VM type) cell.
type key struct {
	activity string
	vmType   string
}

type cell struct {
	n   int
	sum float64
}

// Estimator predicts activation execution times from history. Safe
// for concurrent use.
type Estimator struct {
	mu      sync.RWMutex
	byCell  map[key]cell
	byAct   map[string]cell
	catalog map[string]float64 // vm type -> relative speed
}

// New returns an empty estimator that knows the relative speeds of
// the given VM types (used for the scaling fallback).
func New(types []cloud.VMType) *Estimator {
	cat := make(map[string]float64, len(types))
	for _, t := range types {
		cat[t.Name] = t.Speed
	}
	return &Estimator{
		byCell:  make(map[key]cell),
		byAct:   make(map[string]cell),
		catalog: cat,
	}
}

// Observe folds one measured execution into the model.
func (e *Estimator) Observe(activity, vmType string, execSeconds float64) {
	if execSeconds < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	k := key{activity, vmType}
	c := e.byCell[k]
	c.n++
	c.sum += execSeconds
	e.byCell[k] = c
	a := e.byAct[activity]
	a.n++
	a.sum += execSeconds
	e.byAct[activity] = a
}

// ObserveStore folds every successful record of a provenance store
// (optionally restricted to one run ID; "" = all) into the model and
// returns the number of records used.
func (e *Estimator) ObserveStore(s *provenance.Store, runID string) int {
	n := 0
	for _, rec := range s.All() {
		if !rec.Success || (runID != "" && rec.RunID != runID) {
			continue
		}
		e.Observe(rec.Activity, rec.VMType, rec.ExecTime())
		n++
	}
	return n
}

// ObserveResult folds a simulation result's records into the model.
func (e *Estimator) ObserveResult(res *sim.Result) int {
	n := 0
	for _, rec := range res.Records {
		if !rec.Success {
			continue
		}
		e.Observe(rec.Activity, rec.VMType, rec.ExecTime())
		n++
	}
	return n
}

// Samples returns how many observations back the (activity, vmType)
// cell.
func (e *Estimator) Samples(activity, vmType string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.byCell[key{activity, vmType}].n
}

// Predict estimates the execution time of activation a on vm.
// Fallback chain: cell mean → activity mean rescaled by relative
// speed (observations are speed-weighted-average, so this is a crude
// but serviceable prior) → nominal runtime scaled by speed.
func (e *Estimator) Predict(a *dag.Activation, vm *cloud.VM) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if c := e.byCell[key{a.Activity, vm.Type.Name}]; c.n > 0 {
		return c.sum / float64(c.n)
	}
	if c := e.byAct[a.Activity]; c.n > 0 {
		mean := c.sum / float64(c.n)
		if sp, ok := e.catalog[vm.Type.Name]; ok && sp > 0 {
			return mean / sp
		}
		return mean
	}
	sp := vm.Type.Speed
	if sp <= 0 {
		sp = 1
	}
	return a.Runtime / sp
}

// SlowdownFactorMin returns the observed mean slowdown of a VM type
// relative to the fastest observed type for the same activities, or
// 1 when there is not enough data. It quantifies what the paper's
// estimates miss (e.g. micro-instance throttling). Only cells with at
// least minSamples observations are compared — small samples confound
// per-task runtime variance with VM-type effects, so adaptive triggers
// should require a few observations per cell.
func (e *Estimator) SlowdownFactorMin(vmType string, minSamples int) float64 {
	if minSamples < 1 {
		minSamples = 1
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	// For each activity observed on vmType, compare against the
	// minimum sufficiently-sampled mean across types; average the
	// ratios.
	var ratios []float64
	for k, c := range e.byCell {
		if k.vmType != vmType || c.n < minSamples {
			continue
		}
		mean := c.sum / float64(c.n)
		best := mean
		for k2, c2 := range e.byCell {
			if k2.activity == k.activity && c2.n >= minSamples {
				if m := c2.sum / float64(c2.n); m < best {
					best = m
				}
			}
		}
		if best > 0 {
			ratios = append(ratios, mean/best)
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	return metrics.Mean(ratios)
}

// CostFunc adapts the estimator to sched.HEFT's Costs hook.
func (e *Estimator) CostFunc() func(a *dag.Activation, vm *cloud.VM) float64 {
	return e.Predict
}
