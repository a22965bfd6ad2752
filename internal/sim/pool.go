package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"reassign/internal/cloud"
	"reassign/internal/dag"
)

// Rebind re-targets a pooled engine at a new problem: workflow, fleet,
// scheduler and configuration all change, unlike Reset, which re-arms
// the same problem. Rebind drops only what points into the previous
// problem: the Env (and with it the estimator's memo), the Result, the
// run's hook and the decision Context. Like Reset, it takes the
// previous Result's record slice back as backing, emptied of its
// records. Every other buffer is kept: the DES kernel and its event
// freelist, the rng, the task and VM backings with their pre-bound
// event closures and file-residency maps, the per-VM stats map and the
// decision scratch. The next Run's setup allocates a backing only when
// the new problem outgrows it, and zeroes what lies past the new
// problem's size, so a pooled engine serving many jobs of one
// structure allocates almost nothing per job and pins no workflow or
// fleet it no longer serves.
//
// A rebound run is bit-identical to a fresh engine's run of the same
// problem: setup re-initialises every kept element and re-seeds the
// kept rng (the identical stream); only the kernel's freelist hit
// counters can differ. Rebind rejects what NewEngine rejects.
func (g *Engine) Rebind(w *dag.Workflow, fleet *cloud.Fleet, sched Scheduler, cfg Config) error {
	if err := validateProblem(w, fleet, sched); err != nil {
		return err
	}
	g.w, g.fleet, g.sched, g.cfg = w, fleet, sched, cfg

	g.env = nil
	g.hook = nil
	g.ctx = Context{}
	if g.result != nil {
		// The records name the previous workflow's activations: keep
		// the capacity, not the strings.
		g.recBuf = g.result.Records[:0]
		clear(g.recBuf[:cap(g.recBuf)])
		g.result = nil
	}
	g.resultBuf = Result{}
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
