package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"reassign/internal/cloud"
	"reassign/internal/dag"
)

// Rebind re-targets a pooled engine at a new problem: workflow, fleet,
// scheduler and configuration all change, unlike Reset, which re-arms
// the same problem. Shape-dependent state (task and VM backing, event
// closures, the estimator's memo) is dropped and reallocated by the
// next Run's setup, while the DES kernel — whose event freelist is
// shape-independent — and the rng are kept, so a long-lived engine
// serving many jobs stops paying the kernel's warm-up allocations.
//
// A rebound run is bit-identical to a fresh engine's run of the same
// problem: setup re-seeds the kept rng (the identical stream) and
// only the kernel's freelist hit counters can differ.
func (g *Engine) Rebind(w *dag.Workflow, fleet *cloud.Fleet, sched Scheduler, cfg Config) error {
	if w == nil {
		return fmt.Errorf("sim: nil workflow")
	}
	if sched == nil {
		return fmt.Errorf("sim: nil scheduler")
	}
	if err := w.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if fleet == nil || fleet.Len() == 0 {
		return fmt.Errorf("sim: empty fleet")
	}
	if err := validateConfig(cfg); err != nil {
		return err
	}
	g.w, g.fleet, g.sched, g.cfg = w, fleet, sched, cfg

	// Drop everything sized by (or pointing into) the previous
	// problem. setup reallocates on the next Run.
	g.env = nil
	g.tasks = nil
	g.ready = nil
	g.vms = nil
	g.result = nil
	g.vmBacking = nil
	g.taskBacking = nil
	g.releaseFns = nil
	g.completeFns = nil
	g.resultBuf = Result{}
	g.recBuf = nil
	g.perVMBuf = nil
	g.ctx = Context{}
	g.ctxReady = nil
	g.ctxIdle = nil
	g.cycleFn = nil
	g.remaining = 0
	g.cyclePosted = false
	g.scaler = nil
	g.nBooted = 0
	g.nIdle = 0
	g.peakBooted = 0
	g.hook = nil
	g.running = nil

	// Keep the kernel object and its event freelist; rng is re-seeded
	// by setup.
	g.sim.Reset()
	return nil
}

// Pool is a free list of simulation engines shared across runs and
// problems — the service-side companion of Engine.Reset. A long-
// running daemon acquires an engine per job (rebinding a pooled one
// when available, constructing otherwise) and returns it afterwards;
// under steady load the DES kernels stay warm instead of being
// rebuilt per request. Unlike sync.Pool, idle engines are never
// dropped at random, so reuse (and the reuse counters the daemon
// exports) is deterministic. The list is bounded by maxIdle; beyond
// it Put discards. All methods are safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	idle    []*Engine
	maxIdle int
	reused  atomic.Int64
	fresh   atomic.Int64
}

// NewPool returns an empty engine pool holding at most GOMAXPROCS*2
// idle engines.
func NewPool() *Pool { return &Pool{maxIdle: runtime.GOMAXPROCS(0) * 2} }

// Acquire returns an engine bound to the given problem: a pooled
// engine rebound via Rebind when one is available, a fresh NewEngine
// otherwise. The caller runs it (Run, Reset, Run, …) and hands it
// back with Put.
func (p *Pool) Acquire(w *dag.Workflow, fleet *cloud.Fleet, sched Scheduler, cfg Config) (*Engine, error) {
	p.mu.Lock()
	var e *Engine
	if n := len(p.idle); n > 0 {
		e = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if e != nil {
		if err := e.Rebind(w, fleet, sched, cfg); err != nil {
			// The engine is healthy — the inputs were bad. Keep it.
			p.Put(e)
			return nil, err
		}
		p.reused.Add(1)
		return e, nil
	}
	e, err := NewEngine(w, fleet, sched, cfg)
	if err != nil {
		return nil, err
	}
	p.fresh.Add(1)
	return e, nil
}

// Put returns an engine to the pool. The engine's last Result (and
// everything borrowing its buffers) must no longer be referenced: the
// next Acquire hands the buffers to another job.
func (p *Pool) Put(e *Engine) {
	if e == nil {
		return
	}
	p.mu.Lock()
	if len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, e)
	}
	p.mu.Unlock()
}

// Stats reports how many Acquires were served by rebinding a pooled
// engine (reused) versus constructing a new one (fresh).
func (p *Pool) Stats() (reused, fresh int64) {
	return p.reused.Load(), p.fresh.Load()
}
