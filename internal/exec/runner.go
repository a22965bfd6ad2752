package exec

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	osexec "os/exec"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/randsrc"
)

// SimRunner is the deterministic simulated runner: it "executes" an
// attempt by returning the master's estimated duration, optionally
// perturbed by a cloud fluctuation model. The perturbation is drawn
// from a source keyed by (task, attempt, seed), so it is bit-identical
// across runs and independent of execution order — the property the
// in-process determinism guarantee rests on.
type SimRunner struct {
	// Fluct perturbs durations; nil runs nominal estimates.
	Fluct *cloud.FluctuationModel
	// Seed keys the per-attempt perturbation streams.
	Seed int64
}

// Instant implements InstantRunner: simulated execution never blocks,
// so the worker session may run attempts inline.
func (r SimRunner) Instant() bool { return true }

// Run implements Runner.
func (r SimRunner) Run(_ context.Context, t TaskSpec) (float64, error) {
	d := t.Duration
	if r.Fluct != nil {
		vmType, ok := cloud.TypeByName(t.VMType)
		if !ok {
			vmType = cloud.VMType{Name: t.VMType, VCPUs: 2, Speed: 1}
		}
		vm := &cloud.VM{ID: t.VM, Type: vmType}
		rng := rand.New(randsrc.New(attemptSeed(r.Seed, t.TaskID, t.Attempt)))
		d = r.Fluct.Apply(rng, vm, d)
	}
	return d, nil
}

// FailingRunner wraps a runner with deterministic fault injection:
// each (task, attempt) fails independently with probability Rate,
// decided by a hash of (task, attempt, seed) so the failure pattern is
// reproducible and order-independent. Failed attempts consume half
// their duration — the task crashed partway through.
type FailingRunner struct {
	Inner Runner
	Rate  float64
	Seed  int64
}

// Instant implements InstantRunner when the wrapped runner does:
// fault injection adds no blocking of its own.
func (r FailingRunner) Instant() bool {
	ir, ok := r.Inner.(InstantRunner)
	return ok && ir.Instant()
}

// Run implements Runner.
func (r FailingRunner) Run(ctx context.Context, t TaskSpec) (float64, error) {
	d, err := r.Inner.Run(ctx, t)
	if err != nil {
		return d, err
	}
	if r.Rate > 0 {
		rng := rand.New(randsrc.New(attemptSeed(r.Seed^0x5eed, t.TaskID, t.Attempt)))
		if rng.Float64() < r.Rate {
			return d / 2, fmt.Errorf("injected failure (attempt %d)", t.Attempt)
		}
	}
	return d, nil
}

// attemptSeed derives a deterministic per-(task, attempt) seed.
func attemptSeed(seed int64, taskID string, attempt int) int64 {
	h := fnv.New64a()
	h.Write([]byte(taskID))
	h.Write([]byte{byte(attempt), byte(attempt >> 8)})
	return seed ^ int64(h.Sum64())
}

// SleepRunner blocks for the attempt's estimated duration scaled to
// wall time — the TCP worker's default, which makes a loopback run's
// wall-clock profile mirror the virtual schedule.
type SleepRunner struct {
	// Scale is wall seconds per virtual second.
	Scale float64
}

// Run implements Runner.
func (r SleepRunner) Run(ctx context.Context, t TaskSpec) (float64, error) {
	scale := r.Scale
	if scale <= 0 {
		scale = 1e-3
	}
	wall := time.Duration(t.Duration * scale * float64(time.Second))
	if wall <= 0 {
		return t.Duration, ctx.Err()
	}
	timer := time.NewTimer(wall)
	defer timer.Stop()
	select {
	case <-timer.C:
		return t.Duration, nil
	case <-ctx.Done():
		return t.Duration, ctx.Err()
	}
}

// CommandRunner executes the attempt's argv (the DAX job's
// <argument> list) as a real subprocess and reports the measured wall
// duration converted back to virtual seconds.
type CommandRunner struct {
	// Scale is wall seconds per virtual second (default 1.0: real
	// execution runs in real time).
	Scale float64
}

// Run implements Runner.
func (r CommandRunner) Run(ctx context.Context, t TaskSpec) (float64, error) {
	if len(t.Args) == 0 {
		return 0, fmt.Errorf("exec: task %s has no argv for the command runner", t.TaskID)
	}
	scale := r.Scale
	if scale <= 0 {
		scale = 1.0
	}
	start := time.Now()
	cmd := osexec.CommandContext(ctx, t.Args[0], t.Args[1:]...)
	err := cmd.Run()
	d := time.Since(start).Seconds() / scale
	if err != nil {
		return d, fmt.Errorf("exec: task %s argv %q: %w", t.TaskID, t.Args[0], err)
	}
	return d, nil
}
