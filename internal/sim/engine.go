package sim

import (
	"context"
	"fmt"
	"math/rand"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/des"
	"reassign/internal/randsrc"
	"reassign/internal/telemetry"
)

// Assignment is one scheduling decision: run Task on VM.
type Assignment struct {
	Task *Task
	VM   *VMState
}

// Context is the scheduler's view at one decision point: the workflow
// is Available, Ready and IdleVMs are non-empty.
type Context struct {
	Now     float64
	Ready   []*Task    // ready, unassigned, sorted by (ReadyAt, Index)
	IdleVMs []*VMState // VMs with ≥1 free slot, sorted by ID
	AllVMs  []*VMState // every VM; AllVMs[i] has ID i
	Env     *Env
}

// Scheduler matches ready activations to idle VMs. Implementations
// may keep state across calls within one simulation; Prepare resets
// it.
type Scheduler interface {
	// Name identifies the algorithm in results and tables.
	Name() string
	// Prepare is called once before the simulation starts. Static
	// planners (HEFT) compute their full plan here.
	Prepare(w *dag.Workflow, fleet *cloud.Fleet, env *Env) error
	// Pick returns zero or more assignments for the current decision
	// point. Returning no assignments parks the workflow in the
	// Unavailable-by-choice state until the next completion event.
	// Each returned VM must be idle and each task ready; assignments
	// beyond a VM's free slots are rejected by the engine.
	Pick(ctx *Context) []Assignment
}

// CompletionObserver is an optional extension: schedulers that learn
// online (ReASSIgN) receive every completion with its measured times.
type CompletionObserver interface {
	OnTaskComplete(t *Task, env *Env)
}

// Config tunes the simulation.
type Config struct {
	// DataTransfer adds input-staging time for files produced on a
	// different VM, at the receiving VM's bandwidth.
	DataTransfer bool
	// Fluct, when non-nil, perturbs actual (not estimated) runtimes.
	Fluct *cloud.FluctuationModel
	// Seed drives all randomness in the run.
	Seed int64
	// Horizon aborts runaway simulations (virtual seconds; 0 = none).
	Horizon float64
	// Sink, when non-nil, receives a *telemetry.KernelEvent when the
	// run finishes, valid only until Emit returns (see telemetry.Sink).
	// Learning schedulers (core) thread their own sink here so per-run
	// DES counters land in the same trace.
	Sink telemetry.Sink
	// SkipPlan skips recording Result.Plan. The learning loop discards
	// per-episode plans, and at 100 episodes per run the map builds are
	// measurable in the hot path.
	SkipPlan bool
	// Hook, when non-nil, observes engine-internal transitions (task
	// lifecycle, scheduling decisions) for invariant auditing.
	// Nil keeps every call site a single pointer comparison.
	Hook Hook
	// Ctx, when non-nil, cancels the run: the engine checks it at every
	// scheduling cycle and aborts with the context's error, so callers
	// serving remote cancellation (the schedd daemon) are not held
	// hostage by a long simulation. Nil keeps the hot path untouched.
	Ctx context.Context
}

// Env provides estimation helpers and live aggregates to schedulers.
type Env struct {
	cfg      Config
	fleet    *cloud.Fleet
	workflow *dag.Workflow
	vms      []*VMState
	rng      *rand.Rand

	// acts caches workflow.Activations() for the memoised estimate
	// path: acts[i].Index == i for a validated workflow.
	acts []*dag.Activation
	// baseDur memoises EstimateExec one activation row at a time: a
	// row materialises on the first estimate for that activation and
	// is kept across Engine.Reset, and at most maxBaseDurCells
	// estimates are cached in total so a 10k-activation × 1000-VM
	// problem never allocates the full rectangle up front. baseDurDT
	// records the DataTransfer flag the rows were built under, so a
	// config flip rebuilds them.
	baseDur     [][]float64
	baseDurRows int
	baseDurDT   bool

	// Global aggregates across all finished activations (Eq. 5).
	global VMStats
}

// EstimateExec returns the scheduler-visible nominal execution time
// of an activation on a VM: runtime scaled by core speed, plus full
// input staging if data transfer is enabled. It deliberately ignores
// fluctuation — that is the unmodelled part of the environment.
//
// Estimates over the workflow's activations and the fleet are served
// from per-activation rows memoised lazily (bounded by maxBaseDurCells
// cached estimates in total); only foreign activations or VMs fall
// back to recomputing.
func (e *Env) EstimateExec(a *dag.Activation, vm *cloud.VM) float64 {
	nv := len(e.fleet.VMs)
	if id := vm.ID; id >= 0 && id < nv && e.fleet.VMs[id] == vm &&
		a.Index >= 0 && a.Index < len(e.acts) && e.acts[a.Index] == a {
		if e.baseDur == nil || e.baseDurDT != e.cfg.DataTransfer {
			e.resetBaseDur()
		}
		row := e.baseDur[a.Index]
		if row == nil {
			if e.baseDurRows >= e.baseDurRowCap() {
				return e.estimateExec(a, vm)
			}
			row = make([]float64, nv)
			for j, fvm := range e.fleet.VMs {
				row[j] = e.estimateExec(a, fvm)
			}
			e.baseDur[a.Index] = row
			e.baseDurRows++
		}
		return row[id]
	}
	return e.estimateExec(a, vm)
}

// estimateExec is the uncached estimate.
func (e *Env) estimateExec(a *dag.Activation, vm *cloud.VM) float64 {
	d := a.Runtime / vm.Type.Speed
	if e.cfg.DataTransfer && vm.Type.NetMBps > 0 {
		d += float64(a.InputBytes()) / (vm.Type.NetMBps * 1e6)
	}
	return d
}

// maxBaseDurCells caps the EstimateExec memo footprint (cells ×
// 8 bytes ≈ 64 MB worst case); rows past the cap recompute instead
// of caching.
const maxBaseDurCells = 8 << 20

// baseDurRowCap is the largest number of rows the memo may hold —
// always at least one so small fleets keep the O(1) path.
func (e *Env) baseDurRowCap() int {
	if nv := len(e.fleet.VMs); nv > 0 {
		if c := maxBaseDurCells / nv; c > 0 {
			return c
		}
	}
	return 1
}

// resetBaseDur (re)initialises the lazy row memo under the current
// DataTransfer setting, reusing the row spine when already allocated.
func (e *Env) resetBaseDur() {
	if e.baseDur == nil {
		e.baseDur = make([][]float64, len(e.acts))
	} else {
		clear(e.baseDur)
	}
	e.baseDurRows = 0
	e.baseDurDT = e.cfg.DataTransfer
}

// DataTransferEnabled reports whether input staging costs time in
// this simulation (planners include communication costs only then).
func (e *Env) DataTransferEnabled() bool { return e.cfg.DataTransfer }

// Workflow returns the workflow being simulated.
func (e *Env) Workflow() *dag.Workflow { return e.workflow }

// Fleet returns the fleet being simulated.
func (e *Env) Fleet() *cloud.Fleet { return e.fleet }

// VMStates returns all VM states; the VM with ID i is at index i.
func (e *Env) VMStates() []*VMState { return e.vms }

// AppendVMIDs appends every VM's ID to dst (in ID order) and returns
// it. Hot-path callers pass a reused buffer to avoid allocating.
func (e *Env) AppendVMIDs(dst []int) []int {
	for _, v := range e.vms {
		dst = append(dst, v.VM.ID)
	}
	return dst
}

// AppendIdleVMIDs appends the IDs of idle VMs to dst (in ID order)
// and returns it, without building a []*VMState copy.
func (e *Env) AppendIdleVMIDs(dst []int) []int {
	for _, v := range e.vms {
		if v.Idle() {
			dst = append(dst, v.VM.ID)
		}
	}
	return dst
}

// GlobalStats returns aggregates over all finished activations.
func (e *Env) GlobalStats() VMStats { return e.global }

// Result summarises one simulation run.
type Result struct {
	Scheduler string
	State     WorkflowState
	Makespan  float64
	Cost      float64 // fleet cost for the makespan, hourly billing
	// BusyCost charges only busy slot-seconds, pro-rata per VM — the
	// work-based cost a per-second-billing or serverless deployment
	// would pay. Placement changes BusyCost (expensive VMs cost more
	// per busy second) while Cost only depends on the makespan.
	BusyCost float64
	Records  []Record
	// Plan maps activation ID to the VM ID that ran it (successfully).
	Plan map[string]int
	// PerVM aggregates keyed by VM ID.
	PerVM map[int]VMStats
	// Decisions counts scheduler invocations; Events counts DES steps.
	Decisions int
	Events    int64
	// Kernel holds the DES kernel's instrumentation counters.
	Kernel des.Stats
}

// Run simulates the workflow on the fleet under the scheduler. It is
// shorthand for NewEngine followed by Engine.Run.
func Run(w *dag.Workflow, fleet *cloud.Fleet, sched Scheduler, cfg Config) (*Result, error) {
	eng, err := NewEngine(w, fleet, sched, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// NewEngine validates the inputs and returns a simulation engine.
// Construction is separated from Run so callers can fail fast on bad
// inputs before committing to a run. An Engine runs once; Reset
// re-arms it for further runs without re-allocating its state.
func NewEngine(w *dag.Workflow, fleet *cloud.Fleet, sched Scheduler, cfg Config) (*Engine, error) {
	if err := validateProblem(w, fleet, sched); err != nil {
		return nil, err
	}
	return &Engine{
		w:     w,
		fleet: fleet,
		sched: sched,
		cfg:   cfg,
		sim:   des.New(),
	}, nil
}

// validateProblem checks the inputs NewEngine and Rebind bind an
// engine to. A fleet's VM IDs must be 0..n-1 in order: the engine's
// VMs are exactly the fleet's, and a VM's ID is its index everywhere
// (Env.VMStates, Q-table columns, per-VM slot budgets).
func validateProblem(w *dag.Workflow, fleet *cloud.Fleet, sched Scheduler) error {
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
	for i, vm := range fleet.VMs {
		if vm.ID != i {
			return fmt.Errorf("sim: fleet %q: VM at index %d has ID %d, want IDs 0..%d in order",
				fleet.Name, i, vm.ID, fleet.Len()-1)
		}
	}
	return nil
}

// Engine drives simulation runs on the DES kernel. Construct it with
// NewEngine. A fresh Engine runs once — a second Run returns an error
// — but Reset re-arms it for another run while reusing every internal
// buffer, which is what makes the learning episode loop (100 runs of
// the same workflow on the same fleet) allocation-light.
type Engine struct {
	w     *dag.Workflow
	fleet *cloud.Fleet
	sched Scheduler
	cfg   Config
	sim   *des.Simulator

	// rng drives all per-run randomness; it is re-seeded (not
	// re-allocated) on each run, which produces the identical stream.
	rng *rand.Rand

	env    *Env
	tasks  []*Task // by activation index
	ready  []*Task // ready and unassigned, in (ReadyAt, Index) order (pushReady)
	vms    []*VMState
	result *Result

	// Backing arrays behind vms/tasks: allocated on the first run that
	// needs them at least this large, re-initialised in place by later
	// runs (after Reset or Rebind). Their element addresses are stable
	// until a larger problem reallocates them, which re-binds the event
	// closures below.
	vmBacking   []VMState
	taskBacking []Task
	// releaseFns[i] moves task i into the ready queue; completeFns[i]
	// completes task i on the VM it runs on, vms[t.VM.ID]. Binding them
	// once per task backing (allocTasks) removes the two per-task
	// closure allocations that used to dominate an episode's event
	// scheduling.
	releaseFns  []func()
	completeFns []func()

	// Reused result backing. A Result returned by Run IS resultBuf and
	// borrows the slice/map backings; Reset and Rebind reclaim them
	// all, invalidating that Result entirely (single-use engines — no
	// Reset — hand them over for good).
	resultBuf Result
	recBuf    []Record
	perVMBuf  map[int]VMStats

	// Reused per-decision scratch: the Context handed to Pick and its
	// backing slices, plus the pre-bound cycle closure. Context
	// contents are only valid for the duration of one Pick.
	ctx      Context
	ctxReady []*Task
	ctxIdle  []*VMState
	cycleFn  func()

	remaining   int  // tasks not yet finished
	cyclePosted bool // a scheduling pass is already queued
	nIdle       int  // idle VMs (Idle()); kept by start and complete
	// hook is this run's observer (cfg.Hook.RunStart), nil when
	// observation is disabled.
	hook RunHook
	// done is cfg.Ctx's Done channel, taken once per run (nil without a
	// context, or for one that is never canceled): cycle polls it with
	// a non-blocking receive, which takes no lock, where Ctx.Err would
	// lock on every cycle.
	done <-chan struct{}
	// kernelEv is the one KernelEvent every run emits a pointer to, so
	// a run boxes no event.
	kernelEv telemetry.KernelEvent
}

// Reset re-arms a finished (or errored) engine for another run under
// cfg, reusing every internal buffer: VM and task state, the DES
// event pool, scratch slices and the result backing. Workflow, fleet
// and scheduler are fixed at construction; only the configuration may
// change. A reset run with the same cfg is bit-identical to a fresh
// engine's run (only the DES freelist counters differ).
//
// Reset invalidates the Result returned by the previous Run: the
// struct itself, its Records slice and its PerVM map are all reused
// as backing for the next run. Callers that need any of it afterwards
// must copy first.
func (g *Engine) Reset(cfg Config) {
	g.result = nil
	g.cfg = cfg
	g.sim.Reset()
}

// setup (re)initialises all per-run state. A backing is allocated
// only when its capacity is short of what the problem needs; otherwise
// it is re-initialised in place, so runs after Reset or Rebind reuse
// every buffer a previous run left large enough. Elements past the
// problem's size are zeroed: a pooled engine pins no workflow, VM or
// file name of a problem it no longer serves. Re-seeding the rng keeps
// reused runs bit-identical to fresh ones.
func (g *Engine) setup() {
	g.sim.SetHorizon(g.cfg.Horizon)
	if g.rng == nil {
		g.rng = rand.New(randsrc.New(g.cfg.Seed))
	}
	// Re-seeding yields the same stream as a fresh source, in O(1).
	g.rng.Seed(g.cfg.Seed)
	nv := g.fleet.Len()
	if cap(g.vmBacking) < nv {
		g.vmBacking = make([]VMState, nv)
	}
	clear(g.vmBacking[nv:cap(g.vmBacking)])
	g.vmBacking = g.vmBacking[:nv]
	if cap(g.vms) < nv {
		g.vms = make([]*VMState, 0, nv)
	}
	clear(g.vms[nv:cap(g.vms)])
	g.vms = g.vms[:0]
	if g.ctxIdle == nil {
		g.ctxIdle = make([]*VMState, 0, nv)
	}
	clear(g.ctxIdle[:cap(g.ctxIdle)])
	g.nIdle = 0
	for i, vm := range g.fleet.VMs {
		st := &g.vmBacking[i]
		fileAt := st.fileAt // keep the allocation, drop the contents
		if len(fileAt) > 0 {
			clear(fileAt)
		}
		*st = VMState{VM: vm, Slots: vm.Type.VCPUs, fileAt: fileAt}
		g.vms = append(g.vms, st)
		if st.Idle() {
			g.nIdle++
		}
	}
	if g.env == nil {
		g.env = &Env{fleet: g.fleet, workflow: g.w, acts: g.w.Activations()}
	}
	g.env.cfg = g.cfg
	g.env.vms = g.vms
	g.env.rng = g.rng
	g.env.global = VMStats{}
	n := g.w.Len()
	if g.cfg.Hook != nil {
		g.hook = g.cfg.Hook.RunStart(g.env)
	} else {
		g.hook = nil
	}
	if cap(g.taskBacking) < n {
		g.allocTasks(n)
	}
	clear(g.taskBacking[n:cap(g.taskBacking)])
	g.taskBacking = g.taskBacking[:n]
	g.tasks = g.tasks[:n]
	for _, a := range g.w.Activations() {
		g.taskBacking[a.Index] = Task{Act: a, State: Locked, waitingOn: len(a.Parents())}
		g.tasks[a.Index] = &g.taskBacking[a.Index]
	}
	if g.cycleFn == nil {
		g.cycleFn = func() {
			g.cyclePosted = false
			g.cycle()
		}
	}
	g.ready = g.ready[:0]
	g.remaining = n
	g.cyclePosted = false
	if cap(g.recBuf) < n {
		g.recBuf = make([]Record, 0, n)
	}
	if g.perVMBuf == nil {
		g.perVMBuf = make(map[int]VMStats, len(g.vms))
	} else {
		clear(g.perVMBuf)
	}
	g.resultBuf = Result{
		Scheduler: g.sched.Name(),
		Records:   g.recBuf,
		PerVM:     g.perVMBuf,
	}
	g.result = &g.resultBuf
	if !g.cfg.SkipPlan {
		g.result.Plan = make(map[string]int, n)
	}
}

// allocTasks allocates the task backing for n activations, with the
// slices sized by it, and binds each task's event closures to its
// element: releaseFns[i] and completeFns[i] stay valid for as long as
// this backing does, however later problems reslice it.
func (g *Engine) allocTasks(n int) {
	g.taskBacking = make([]Task, n)
	g.tasks = make([]*Task, n)
	g.ready = make([]*Task, 0, n)
	g.ctxReady = make([]*Task, 0, n)
	g.releaseFns = make([]func(), n)
	g.completeFns = make([]func(), n)
	for i := range g.taskBacking {
		t := &g.taskBacking[i]
		g.releaseFns[i] = func() {
			g.pushReady(t)
			if g.hook != nil {
				g.hook.TaskReady(t.ReadyAt, t)
			}
			g.postCycle()
		}
		g.completeFns[i] = func() { g.complete(t, g.vms[t.VM.ID]) }
	}
}

// Run executes the simulation to completion. A second Run without an
// intervening Reset returns an error.
func (g *Engine) Run() (*Result, error) {
	if g.result != nil {
		return nil, fmt.Errorf("sim: engine already ran (Reset re-arms it)")
	}
	g.setup()
	g.done = nil
	if g.cfg.Ctx != nil {
		g.done = g.cfg.Ctx.Done()
	}
	if err := g.sched.Prepare(g.w, g.fleet, g.env); err != nil {
		return nil, fmt.Errorf("sim: scheduler %s: %w", g.sched.Name(), err)
	}

	// Release the roots.
	for _, t := range g.tasks {
		if t.waitingOn == 0 {
			g.release(t)
		}
	}
	if err := g.sim.Run(); err != nil {
		return nil, fmt.Errorf("sim: %w (makespan so far %.2f)", err, g.sim.Now())
	}

	// Makespan is the last activation completion.
	for _, r := range g.result.Records {
		if r.FinishAt > g.result.Makespan {
			g.result.Makespan = r.FinishAt
		}
	}
	g.result.Cost = g.fleet.Cost(g.result.Makespan)
	g.result.Events = g.sim.Steps()
	if g.remaining == 0 {
		g.result.State = FinishedOK
	} else {
		// Scheduler refused to place remaining ready tasks: deadlock.
		return nil, fmt.Errorf("sim: scheduler %s stalled with %d tasks unfinished at t=%.2f",
			g.sched.Name(), g.remaining, g.sim.Now())
	}
	for _, v := range g.vms {
		g.result.PerVM[v.VM.ID] = v.stats
		// Pro-rata: price is per VM-hour; one busy slot-second costs
		// price / (3600 × slots).
		g.result.BusyCost += v.stats.Busy * v.VM.Type.PricePerHour / (3600 * float64(v.Slots))
	}
	g.result.Kernel = g.sim.Stats()
	if g.hook != nil {
		g.hook.RunEnd(g.result)
	}
	if g.cfg.Sink != nil {
		ks := g.result.Kernel
		g.kernelEv = telemetry.KernelEvent{
			Scheduler:      g.result.Scheduler,
			State:          g.result.State.String(),
			Makespan:       g.result.Makespan,
			Decisions:      g.result.Decisions,
			Events:         ks.Steps,
			Scheduled:      ks.Scheduled,
			FreelistHits:   ks.FreelistHits,
			FreelistMisses: ks.FreelistMisses,
			MaxQueueDepth:  ks.MaxQueueDepth,
		}
		g.cfg.Sink.Emit(&g.kernelEv)
	}
	return g.result, nil
}

// release moves a task into the ready queue via the task's pre-bound
// event closure. It is a zero-delay event rather than an inline call:
// the release runs after the other events already queued for this
// instant, an order the scheduling decisions depend on.
func (g *Engine) release(t *Task) {
	g.sim.At(g.sim.Now(), g.releaseFns[t.Act.Index])
}

// postCycle queues a scheduling pass if none is pending. Priority 1
// runs it after all same-time completions/releases have settled.
func (g *Engine) postCycle() {
	if g.cyclePosted {
		return
	}
	g.cyclePosted = true
	g.sim.AtPriority(g.sim.Now(), 1, g.cycleFn)
}

// workflowState computes the paper's workflow state.
func (g *Engine) workflowState() WorkflowState {
	if g.remaining == 0 {
		return FinishedOK
	}
	if len(g.ready) == 0 || g.nIdle == 0 {
		return Unavailable
	}
	return Available
}

// pushReady marks t ready at the clock and adds it to the ready list.
// Every entry already there became ready no later, so the list stays
// in (ReadyAt, Index) order by moving t in front of the same-instant
// entries with a higher index.
func (g *Engine) pushReady(t *Task) {
	t.State = Ready
	t.ReadyAt = g.sim.Now()
	g.ready = append(g.ready, t)
	i := len(g.ready) - 1
	for ; i > 0; i-- {
		p := g.ready[i-1]
		if p.ReadyAt != t.ReadyAt || p.Act.Index < t.Act.Index {
			break
		}
		g.ready[i] = p
	}
	g.ready[i] = t
}

// cycle invokes the scheduler while the workflow stays Available and
// the scheduler keeps making progress.
func (g *Engine) cycle() {
	if g.done != nil {
		select {
		case <-g.done:
			// Stop the kernel before the next event; Run surfaces the
			// context error (errors.Is-able as context.Canceled etc.).
			g.sim.Interrupt(g.cfg.Ctx.Err())
			return
		default:
		}
	}
	for g.workflowState() == Available {
		ctx := g.buildContext()
		g.result.Decisions++
		if g.hook != nil {
			g.hook.Decision(g.sim.Now(), ctx)
		}
		assigns := g.sched.Pick(ctx)
		if len(assigns) == 0 {
			return // scheduler chose "do nothing"
		}
		progressed := false
		for _, as := range assigns {
			if g.start(as) {
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// buildContext refreshes the reused Context for the next Pick call.
// Its slices are scratch buffers: schedulers must not retain them
// past the call.
func (g *Engine) buildContext() *Context {
	ready := append(g.ctxReady[:0], g.ready...)
	idle := g.ctxIdle[:0]
	for _, v := range g.vms {
		if len(idle) == g.nIdle {
			break
		}
		if v.Idle() {
			idle = append(idle, v)
		}
	}
	g.ctxReady, g.ctxIdle = ready, idle
	g.ctx = Context{Now: g.sim.Now(), Ready: ready, IdleVMs: idle, AllVMs: g.vms, Env: g.env}
	return &g.ctx
}

// start validates and executes one assignment. It returns false for
// invalid assignments (task not ready, VM full), which are skipped.
func (g *Engine) start(as Assignment) bool {
	t, v := as.Task, as.VM
	if t == nil || v == nil || t.State != Ready || !v.Idle() {
		return false
	}
	// Remove from the ready queue.
	for i, rt := range g.ready {
		if rt == t {
			g.ready = append(g.ready[:i], g.ready[i+1:]...)
			break
		}
	}
	v.acquire()
	if v.busy == v.Slots {
		g.nIdle--
	}
	t.State = Running
	t.VM = v.VM
	t.Attempts++
	start := g.sim.Now()
	t.StartAt = start
	g.sim.At(start+g.duration(t, v), g.completeFns[t.Act.Index])
	if g.hook != nil {
		g.hook.TaskStart(g.sim.Now(), t, v)
	}
	return true
}

// duration computes the actual execution time of t on v, including
// data staging for remote inputs (at the inter-site link rate when
// the producer lives on another site of a multi-site fleet) and
// optional fluctuation.
func (g *Engine) duration(t *Task, v *VMState) float64 {
	d := t.Act.Runtime / v.VM.Type.Speed
	if g.cfg.DataTransfer && v.VM.Type.NetMBps > 0 {
		topo := g.fleet.Topology
		for _, f := range t.Act.Inputs {
			if v.HasFile(f.Name) {
				continue
			}
			rate := v.VM.Type.NetMBps
			if topo != nil {
				if home := g.producer(f.Name); home != nil && home.VM.Site != v.VM.Site {
					if link := topo.Bandwidth(home.VM.Site, v.VM.Site); link > 0 && link < rate {
						rate = link
					}
				}
			}
			d += float64(f.Size) / (rate * 1e6)
		}
	}
	if g.cfg.Fluct != nil {
		d = g.cfg.Fluct.Apply(g.env.rng, v.VM, d)
	}
	return d
}

// producer returns the VM that holds the named file, nil when none
// does. A file normally has one producing activation; should two
// activations write one name, the first holder in fleet order wins.
func (g *Engine) producer(file string) *VMState {
	for _, v := range g.vms {
		if v.HasFile(file) {
			return v
		}
	}
	return nil
}

func (g *Engine) complete(t *Task, v *VMState) {
	if v.busy == v.Slots {
		g.nIdle++
	}
	v.release()
	t.FinishAt = g.sim.Now()
	t.State = Succeeded
	g.record(t, v)
	g.remaining--
	if g.hook != nil {
		g.hook.TaskFinish(g.sim.Now(), t, v)
	}
	if g.result.Plan != nil {
		g.result.Plan[t.Act.ID] = v.VM.ID
	}
	if len(t.Act.Outputs) > 0 {
		if v.fileAt == nil {
			v.fileAt = make(map[string]bool, len(t.Act.Outputs))
		}
		for _, f := range t.Act.Outputs {
			v.fileAt[f.Name] = true
		}
	}
	exec, wait := t.ExecTime(), t.QueueTime()
	v.stats.add(exec, wait)
	g.env.global.add(exec, wait)
	if obs, ok := g.sched.(CompletionObserver); ok {
		obs.OnTaskComplete(t, g.env)
	}
	for _, c := range t.Act.Children() {
		ct := g.tasks[c.Index]
		ct.waitingOn--
		if ct.waitingOn == 0 {
			g.release(ct)
		}
	}
	g.postCycle()
}

func (g *Engine) record(t *Task, v *VMState) {
	g.result.Records = append(g.result.Records, Record{
		TaskID:   t.Act.ID,
		Activity: t.Act.Activity,
		VMID:     v.VM.ID,
		VMType:   v.VM.Type.Name,
		ReadyAt:  t.ReadyAt,
		StartAt:  t.StartAt,
		FinishAt: t.FinishAt,
		Attempts: t.Attempts,
		Success:  true,
	})
}
