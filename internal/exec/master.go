package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/des"
	"reassign/internal/market"
	"reassign/internal/provenance"
	"reassign/internal/rl"
	"reassign/internal/telemetry"
)

// Master executes a scheduling plan over a worker pool: the Go
// analogue of the paper's SCMaster. It is single-threaded — all
// concurrency lives behind the Transport — so its decisions are a
// pure function of the event sequence, which is what makes in-process
// runs bit-identical.
type Master struct {
	w     *dag.Workflow
	fleet *cloud.Fleet
	plan  core.Plan
	tr    Transport

	store Recorder
	runID string
	sink  telemetry.Sink

	// The n-th failed attempt with n == maxAttempts abandons the
	// activation and its descendants; the k-th retry waits
	// min(backoffBase·2^(k−1), backoffMax) virtual seconds.
	maxAttempts int
	backoffBase float64
	backoffMax  float64
	leaseTTL    float64
	leaseFactor float64
	table       *rl.Table
	keepOpen    bool

	// Market execution (WithMarket).
	market       *market.Playback
	reactiveOnly bool

	// Run state.
	tasks      []*taskState
	vms        []*vmState
	vmByID     map[int]*vmState
	alive      map[int]bool
	aliveCount int
	now        float64
	// work lists indices of VMs whose dispatchability may have changed
	// since the last dispatch pass (task enqueued, slot freed) — the
	// only VMs dispatch must visit. carry is its reusable scratch for
	// VMs that keep a backlog across turns.
	work  []int
	carry []int
	// timers holds every pending lease and backoff wake-up (timers.go),
	// so the loop's deadline is a heap root instead of a task scan;
	// expired is expireLeases' reusable scratch.
	timers  des.Heap[struct{}]
	expired []int
	// finished logs completed task indices in completion order. m.now
	// never decreases, so that is also finish-time order, and report
	// builds Results from it without sorting the workflow.
	finished []int32

	done, abandoned                           int
	attempts, retries, reassigned, workerLost int

	// Market run state: sorted worker join order (deterministic
	// replacement ownership), the highest VM ID handed out, market
	// counters, the replacement acquires to bill at report time and the
	// deferred ones, keyed (time, VM index).
	workerIDs                                            []int
	maxVMID                                              int
	preemptNotices, preempted, cordonedCount, remediated int
	degradedCount                                        int
	bills                                                []replacementBill
	acq                                                  des.Heap[struct{}]

	// checkTurn, when set (tests only), inspects the master at the end
	// of every event-loop turn.
	checkTurn func()
}

type taskState struct {
	a  *dag.Activation
	vm int
	// waiting counts unfinished parents; the task is released when it
	// reaches zero.
	waiting  int
	attempts int
	readyAt  float64
	// nextAt gates redispatch after a backoff.
	nextAt    float64
	queued    bool
	running   bool
	done      bool
	abandoned bool
	timed     bool // has a wake-up in Master.timers (timers.go)
	worker    int
	start     float64
	lease     float64
	finish    float64
}

type vmState struct {
	vm    *cloud.VM
	owner int
	dead  bool
	slots int
	// running holds the task indices of the attempts in flight on this
	// VM, ascending; its length is the busy-slot count.
	running []int32
	queue   []int // task indices awaiting dispatch on this VM, ascending
	idx     int   // position in Master.vms, the deterministic dispatch order
	marked  bool  // already on the dispatch worklist

	// Market state: a preemption notice cordons a VM against new work
	// and sets its pending kill (killAt > 0); a cordoned VM still
	// dispatches queued tasks that provably finish before the kill.
	// slow (>= 1) scales
	// duration estimates and leases, bootAt gates dispatch to a
	// still-provisioning replacement, remediated records that a
	// replacement was already bought for this VM.
	cordoned   bool
	killAt     float64
	slow       float64
	bootAt     float64
	remediated bool
}

// Option configures a Master.
type Option func(*Master)

// Recorder receives a run's provenance as the master records it: one
// Grow with the run's size, then every attempt and every activation's
// final execution, from the master's goroutine. *provenance.Store is
// one; the schedd daemon records straight into its compact rows.
type Recorder interface {
	Grow(execs, attempts int)
	Add(provenance.Execution)
	AddAttempt(provenance.Attempt)
}

// WithStore records every attempt and final execution into r under
// the given run ID.
func WithStore(r Recorder, runID string) Option {
	return func(m *Master) {
		m.store = r
		if runID != "" {
			m.runID = runID
		}
	}
}

// WithSink streams exec telemetry events to s.
func WithSink(s telemetry.Sink) Option {
	return func(m *Master) { m.sink = s }
}

// WithLease sets lease policy: an attempt's initial lease is
// max(ttl, factor·estimate) virtual seconds and every worker
// heartbeat extends it to now+ttl (defaults 30 and 4).
func WithLease(ttl, factor float64) Option {
	return func(m *Master) {
		if ttl > 0 {
			m.leaseTTL = ttl
		}
		if factor > 0 {
			m.leaseFactor = factor
		}
	}
}

// WithQTable makes repin consult the learned Q table one more time:
// an activation orphaned by a dead or cordoned VM moves to the
// surviving VM with the highest Q value. Without it repin takes the
// earliest finish, the least backlog plus the activation's estimate.
func WithQTable(t *rl.Table) Option {
	return func(m *Master) { m.table = t }
}

// WithCallerOwnedTransport leaves the transport open when Run
// returns: the caller closes it (Run closes it by default). Used
// where transport lifetime outlives the run — the benchmark harness
// tears connections down off the clock, and a future multi-plan
// master could reuse a joined fleet.
func WithCallerOwnedTransport() Option {
	return func(m *Master) { m.keepOpen = true }
}

// New builds a Master for one plan execution. The plan is validated
// against the workflow and fleet up front (satellite of the same
// check the simulation engine performs), so a stale plan fails here
// with a named activation instead of deep inside dispatch.
func New(w *dag.Workflow, fleet *cloud.Fleet, plan core.Plan, tr Transport, opts ...Option) (*Master, error) {
	if tr == nil {
		return nil, fmt.Errorf("exec: nil transport")
	}
	if w == nil {
		return nil, fmt.Errorf("exec: nil workflow")
	}
	if fleet == nil || fleet.Len() == 0 {
		return nil, fmt.Errorf("exec: empty fleet")
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if err := plan.Validate(w, fleet); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	m := &Master{
		w: w, fleet: fleet, plan: plan, tr: tr,
		runID:       "exec",
		maxAttempts: 5,
		backoffBase: 1, backoffMax: 60,
		leaseTTL: 30, leaseFactor: 4,
	}
	for _, opt := range opts {
		opt(m)
	}
	if err := m.validateMarketFleet(); err != nil {
		return nil, err
	}
	if m.store != nil {
		// One execution row per activation, and at least one attempt.
		m.store.Grow(w.Len(), w.Len())
	}
	bindWorkflow(tr, w)
	return m, nil
}

// nominalExec is the execution-time estimate used for lease sizing,
// dispatch durations and reassignment: runtime/speed, the simulator's
// nominal model.
func nominalExec(a *dag.Activation, vm *cloud.VM) float64 {
	return a.Runtime / vm.Type.Speed
}

// TaskResult summarises one activation after the run.
type TaskResult struct {
	ID       string
	Activity string
	VM       int
	Worker   int
	Attempts int
	Start    float64
	Finish   float64
	Done     bool
}

// Report summarises one master run.
type Report struct {
	// Makespan is the virtual time of the last completion.
	Makespan float64
	// Wall is the real elapsed time of the run.
	Wall time.Duration
	// Tasks is the workflow size; Done counts completed activations.
	Tasks int
	Done  int
	// Attempts counts dispatches, Retries the re-dispatches among
	// them, Reassigned the repins off dead VMs.
	Attempts   int
	Retries    int
	Reassigned int
	// WorkerLost counts worker deaths observed.
	WorkerLost int
	// Abandoned counts activations whose attempt budget ran out (plus
	// descendants doomed by them); Failed lists their IDs, sorted.
	Abandoned int
	Failed    []string
	// Market execution (masters configured WithMarket only):
	// PreemptNotices counts notices received, Preempted the kills
	// executed, Cordoned the VMs cordoned, Remediated the on-demand
	// replacements acquired, Degraded the health downgrades applied.
	// Cost is the run's bill against the traced prices — every traced
	// VM from t=0 to the makespan (clipped at its kill) plus each
	// replacement from its acquire — split per provider in
	// CostByProvider.
	PreemptNotices int
	Preempted      int
	Cordoned       int
	Remediated     int
	Degraded       int
	Cost           float64
	CostByProvider []market.ProviderCost
	// Results holds one entry per activation, in completion order
	// (unfinished activations last, in index order).
	Results []TaskResult
}

// Run executes the plan to completion. It returns a non-nil Report
// even on error, so partial progress is inspectable; the error is
// non-nil when activations were abandoned, every worker died, or the
// context was cancelled.
func (m *Master) Run(ctx context.Context) (*Report, error) {
	wallStart := time.Now()
	workers, err := m.tr.Open(ctx)
	if err != nil {
		return &Report{Tasks: m.w.Len()}, err
	}
	if !m.keepOpen {
		defer m.tr.Close()
	}
	if len(workers) == 0 {
		return &Report{Tasks: m.w.Len()}, fmt.Errorf("exec: transport opened with zero workers")
	}
	sort.Ints(workers)
	m.workerIDs = workers

	m.alive = make(map[int]bool, len(workers))
	for _, id := range workers {
		m.alive[id] = true
	}
	m.aliveCount = len(workers)

	// Partition the fleet across workers round-robin in VM-ID order:
	// each worker owns a fixed VM subset, as the paper's slaves own
	// their machines.
	// State lives in two backing arrays — one allocation each instead
	// of one per VM and per task, which on a wide plan over a large
	// fleet is most of the run's setup garbage.
	vsb := make([]vmState, len(m.fleet.VMs))
	m.vms = make([]*vmState, 0, m.fleet.Len())
	m.vmByID = make(map[int]*vmState, m.fleet.Len())
	fleetSlots := 0
	for i, vm := range m.fleet.VMs {
		slots := vm.Type.VCPUs
		if slots <= 0 {
			slots = 1
		}
		fleetSlots += slots
		vs := &vsb[i]
		*vs = vmState{vm: vm, owner: workers[i%len(workers)], slots: slots, idx: i, slow: 1}
		m.vms = append(m.vms, vs)
		m.vmByID[vm.ID] = vs
		if vm.ID > m.maxVMID {
			m.maxVMID = vm.ID
		}
	}

	tsb := make([]taskState, m.w.Len())
	m.tasks = make([]*taskState, m.w.Len())
	for _, a := range m.w.Activations() {
		ts := &tsb[a.Index]
		*ts = taskState{a: a, waiting: len(a.Parents()), worker: -1}
		m.tasks[a.Index] = ts
	}
	counts := make([]int, len(vsb))
	for i := 0; i < m.plan.Len(); i++ {
		e := m.plan.At(i)
		tsb[m.w.Get(e.Activation).Index].vm = e.VM // New validated the plan complete
		counts[m.vmByID[e.VM].idx]++
	}
	// Carve each VM's dispatch queue out of one backing array sized to
	// the plan, so steady-state enqueues never grow a slice (repins
	// after a worker death may still exceed a queue's slice and fall
	// back to append's growth), and each running set out of one sized
	// to the fleet's slots, which it never exceeds.
	qbuf := make([]int, m.w.Len())
	rbuf := make([]int32, fleetSlots)
	qoff, roff := 0, 0
	for i := range vsb {
		vs := &vsb[i]
		vs.queue = qbuf[qoff : qoff : qoff+counts[i]]
		vs.running = rbuf[roff : roff : roff+vs.slots]
		qoff += counts[i]
		roff += vs.slots
	}
	m.work = make([]int, 0, len(vsb))
	m.carry = make([]int, 0, len(vsb))
	m.finished = make([]int32, 0, len(tsb))
	// Leases, one per busy slot, with room again for stale entries but
	// at most one per task (timers.go): sized so the heap rarely grows.
	m.timers = make(des.Heap[struct{}], 0, min(len(tsb), 2*fleetSlots))
	for _, ts := range m.tasks {
		if ts.waiting == 0 {
			m.release(ts)
		}
	}

	if err := m.dispatch(); err != nil {
		return m.report(wallStart), err
	}
	if err := m.flushSends(); err != nil {
		return m.report(wallStart), err
	}
	n := m.w.Len()
	for m.done+m.abandoned < n {
		// Fast path: take an already-pending event without computing
		// the deadline. Only when the transport has nothing ready
		// (EvTick at m.now) does the loop look up the next wake-up and
		// block.
		ev, err := m.tr.Next(ctx, m.now)
		if err == nil && ev.Kind == EvTick {
			ev, err = m.tr.Next(ctx, m.deadline())
		}
		if err != nil {
			if err == ErrIdle {
				err = fmt.Errorf("exec: deadlock: %d/%d activations finished and no events pending", m.done, n)
			}
			return m.report(wallStart), err
		}
		if err := m.handle(ev); err != nil {
			return m.report(wallStart), err
		}
		if ev.Kind == EvTick {
			m.expireLeases()
		}
		// Drain whatever else is already pending before redispatching,
		// so a burst of completions frees its slots in one pass and
		// the refill leaves as one flushed batch per worker instead of
		// one write per task.
		if err := m.drain(ctx); err != nil {
			return m.report(wallStart), err
		}
		if err := m.dispatch(); err != nil {
			return m.report(wallStart), err
		}
		if err := m.flushSends(); err != nil {
			return m.report(wallStart), err
		}
		if m.checkTurn != nil {
			m.checkTurn()
		}
	}

	rep := m.report(wallStart)
	if m.sink != nil {
		m.sink.Emit(telemetry.ExecRunEvent{
			Makespan: rep.Makespan, WallSeconds: rep.Wall.Seconds(),
			Tasks: rep.Tasks, Attempts: rep.Attempts, Retries: rep.Retries,
			Reassigned: rep.Reassigned, WorkerLost: rep.WorkerLost,
			Abandoned: rep.Abandoned,
		})
	}
	if m.abandoned > 0 {
		return rep, fmt.Errorf("exec: %d of %d activations abandoned (first: %s)",
			m.abandoned, n, rep.Failed[0])
	}
	return rep, nil
}

// maxDrain caps events consumed per loop turn, so a flood of
// heartbeats from a very large fleet cannot starve lease expiry and
// dispatch indefinitely.
const maxDrain = 1024

// drain consumes events that are already pending (virtual deadline
// m.now, so nothing blocks) without dispatching in between: the
// batching half of the event-loop turn. When the queue runs dry it
// yields the processor once and re-polls before concluding the turn —
// worker and reader goroutines that are already runnable get to
// deliver what they hold, which on a busy machine turns near-misses
// into one big batch instead of many single-event turns.
func (m *Master) drain(ctx context.Context) error {
	yields := 1
	for i := 0; i < maxDrain; i++ {
		ev, err := m.tr.Next(ctx, m.now)
		if err != nil {
			return err
		}
		if err := m.handle(ev); err != nil {
			return err
		}
		if ev.Kind == EvTick {
			if yields == 0 {
				return nil
			}
			yields--
			runtime.Gosched()
		}
	}
	return nil
}

// handle advances the clock to the event, settles the deferred
// acquires that have come due, and runs the event's handler. A tick has
// none here: Run expires leases on it, drain yields.
func (m *Master) handle(ev Event) error {
	if ev.Time > m.now {
		m.now = ev.Time
	}
	m.processAcquires()
	switch ev.Kind {
	case EvResult:
		m.onResult(ev)
	case EvHeartbeat:
		m.onHeartbeat(ev)
	case EvWorkerLost:
		return m.onWorkerLost(ev.Worker)
	case EvPreemptNotice:
		m.onPreemptNotice(ev)
	case EvVMKill:
		m.onVMKill(ev)
	case EvVMHealth:
		m.onVMHealth(ev)
	}
	return nil
}

// flushSends pushes staged dispatches onto the wire for transports
// that batch (Flusher). A worker whose batch fails delivery is lost;
// its recovery can queue new work, so the flush loops until a pass
// delivers everything.
func (m *Master) flushSends() error {
	fl, ok := m.tr.(Flusher)
	if !ok {
		return nil
	}
	for {
		lost := fl.Flush()
		if len(lost) == 0 {
			return nil
		}
		for _, w := range lost {
			if err := m.onWorkerLost(w); err != nil {
				return err
			}
		}
		if err := m.dispatch(); err != nil {
			return err
		}
	}
}

// deadline computes the next virtual instant the master must wake at
// even without an event: the earliest lease expiry or backoff gate (the
// timer heap's root, once passed gates are dropped), replacement boot
// or deferred acquire.
func (m *Master) deadline() float64 {
	dl := Forever
	for ts := m.liveRoot(); ts != nil; ts = m.liveRoot() {
		if at := ts.wakeAt(); ts.running || at > m.now {
			dl = at
			break
		}
		m.popTimer(ts) // a backoff gate already passed
	}
	for _, vs := range m.vms {
		if !vs.dead && len(vs.queue) > 0 && vs.bootAt > m.now && vs.bootAt < dl {
			dl = vs.bootAt
		}
	}
	if len(m.acq) > 0 && m.acq[0].Time < dl {
		dl = m.acq[0].Time
	}
	return dl
}

// release marks a task ready and queues it on its (possibly
// reassigned) VM.
func (m *Master) release(ts *taskState) {
	ts.readyAt = m.now
	m.enqueue(ts)
}

// enqueue places a task on its VM's queue, in index order, repinning
// first if the VM has died or been cordoned since planning. A task
// still backing off gets a timer for its gate.
func (m *Master) enqueue(ts *taskState) {
	vs := m.vmByID[ts.vm]
	if vs == nil || vs.dead || (vs.cordoned && !m.fitsBeforeKill(vs, ts)) {
		vs = m.repin(ts)
		if vs == nil {
			m.clearTimer(ts)
			return // no survivors; the run is already failing
		}
	}
	ts.queued = true
	i, q := ts.a.Index, vs.queue
	if n := len(q); n == 0 || q[n-1] < i {
		vs.queue = append(q, i)
	} else {
		at, _ := slices.BinarySearch(q, i)
		vs.queue = slices.Insert(q, at, i)
	}
	if ts.nextAt > m.now {
		m.setTimer(ts)
	}
	m.markVM(vs)
}

// markVM puts the VM on the dispatch worklist (idempotently): call it
// whenever a VM gains queued work or a free slot.
func (m *Master) markVM(vs *vmState) {
	if !vs.marked {
		vs.marked = true
		m.work = append(m.work, vs.idx)
	}
}

// repin moves a task off a dead or cordoned VM and returns the new
// VM's state (nil when no VM survives). The survivors are the live,
// uncordoned VMs in ID order. With a Q table (WithQTable) repin takes
// the table's best survivor for the activation — the paper's Q table
// consulted one more time at execution time; otherwise the earliest
// finish, the survivor minimising backlog plus the activation's
// estimate, the lowest ID winning ties.
func (m *Master) repin(ts *taskState) *vmState {
	var cands []*vmState
	for _, vs := range m.vms {
		if !vs.dead && !vs.cordoned {
			cands = append(cands, vs)
		}
	}
	if len(cands) == 0 {
		// Every live VM is cordoned: park on one rather than dropping
		// the task — the kill's recovery repins it again.
		for _, vs := range m.vms {
			if !vs.dead {
				cands = append(cands, vs)
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	to, policy := cands[0], "earliest-finish"
	if m.table != nil {
		policy = "qtable"
		ids := make([]int, len(cands))
		for i, vs := range cands {
			ids[i] = vs.vm.ID
		}
		// Best answers -1 only when every value is NaN: keep the first.
		if id, _ := m.table.Best(ts.a.Index, ids); id >= 0 {
			to = m.vmByID[id]
		}
	} else {
		var best float64
		for i, vs := range cands {
			if t := m.backlog(vs) + nominalExec(ts.a, vs.vm); i == 0 || t < best {
				to, best = vs, t
			}
		}
	}
	from := ts.vm
	ts.vm = to.vm.ID
	m.reassigned++
	if m.sink != nil {
		m.sink.Emit(telemetry.ExecReassignEvent{
			Task: ts.a.ID, FromVM: from, ToVM: ts.vm,
			Time: m.now, Policy: policy,
		})
	}
	return to
}

// backlog estimates a VM's outstanding work per slot in virtual
// seconds: queued plus in-flight attempt estimates.
func (m *Master) backlog(vs *vmState) float64 {
	var sum float64
	for _, i := range vs.queue {
		sum += nominalExec(m.tasks[i].a, vs.vm)
	}
	for _, i := range vs.running {
		sum += nominalExec(m.tasks[i].a, vs.vm)
	}
	if vs.slow > 1 {
		sum *= vs.slow
	}
	per := sum / float64(vs.slots)
	if vs.bootAt > m.now {
		// A still-provisioning replacement can't start anything before
		// its boot completes; make the earliest finish see that wait.
		per += vs.bootAt - m.now
	}
	return per
}

// dispatch fills free slots on live VMs, lowest VM ID first, lowest
// task index first — the deterministic order the in-process
// bit-identical guarantee rests on. It visits only worklisted VMs —
// those whose dispatchability an event changed since the last pass,
// plus any still carrying a backlog — so on a large fleet a turn
// costs the handful of VMs it touched, not a scan of all of them.
// Each batch is processed in ascending VM order, and VMs a recovery
// dirties mid-pass (worker loss repinning queues) form the next
// batch, which preserves the full-scan semantics. A send failure
// marks the owning worker lost and recovery continues in the same
// call.
func (m *Master) dispatch() error {
	carry := m.carry[:0]
	drained := m.work
	for len(m.work) > 0 {
		work := m.work
		// Mid-pass marks append after the batch being read; the tail
		// re-slice keeps them for the next iteration.
		m.work = work[len(work):]
		sort.Ints(work)
		for _, i := range work {
			vs := m.vms[i]
			vs.marked = false
			if vs.dead {
				continue
			}
			if vs.bootAt > m.now {
				// Replacement still provisioning: keep it on the worklist
				// and revisit at the boot tick.
				vs.marked = true
				carry = append(carry, i)
				continue
			}
			for len(vs.running) < vs.slots {
				ti := m.pickQueued(vs)
				if ti < 0 {
					break
				}
				ts := m.tasks[ti]
				if err := m.send(ts, vs); err != nil {
					if lerr := m.onWorkerLost(vs.owner); lerr != nil {
						return lerr
					}
					break
				}
			}
			if len(vs.queue) > 0 && !vs.marked && !vs.dead {
				// Backlogged (all slots busy) or backoff-deferred tasks
				// remain: revisit on the next dispatch, when a slot may
				// have freed or time advanced past the backoff.
				vs.marked = true
				carry = append(carry, i)
			}
		}
	}
	// The drained work array becomes next call's carry scratch (m.work
	// is only its exhausted tail now), and the carried VMs become its
	// worklist.
	m.carry = drained[:0]
	m.work = carry
	return nil
}

// pickQueued removes and returns the lowest-index dispatchable task
// on the VM's queue, or -1. The queue is in index order, so that is the
// first dispatchable entry — the head, unless a backoff or a pending
// kill holds it back. Popping the head advances the slice; the
// capacity that strands is never needed again, because a queue never
// takes more entries than the plan pinned to its VM (repins aside).
func (m *Master) pickQueued(vs *vmState) int {
	for at, i := range vs.queue {
		ts := m.tasks[i]
		if ts.nextAt > m.now {
			continue
		}
		if vs.killAt > 0 {
			// Pending kill: only start work that finishes before it.
			if m.now+execOn(ts.a, vs) > vs.killAt {
				continue
			}
		}
		if at == 0 {
			vs.queue = vs.queue[1:]
		} else {
			vs.queue = append(vs.queue[:at], vs.queue[at+1:]...)
		}
		return i
	}
	return -1
}

// send dispatches one attempt to the VM's owning worker.
func (m *Master) send(ts *taskState, vs *vmState) error {
	ts.attempts++
	m.attempts++
	// Degraded node health stretches both the duration handed to the
	// runner and the lease, or healthy-speed leases would expire
	// degraded attempts.
	est := execOn(ts.a, vs)
	lease := m.leaseTTL
	if f := est * m.leaseFactor; f > lease {
		lease = f
	}
	ts.queued = false
	ts.running = true
	ts.worker = vs.owner
	ts.start = m.now
	ts.lease = m.now + lease
	m.setTimer(ts)
	at, _ := slices.BinarySearch(vs.running, int32(ts.a.Index))
	vs.running = slices.Insert(vs.running, at, int32(ts.a.Index))
	spec := TaskSpec{
		TaskID: ts.a.ID, Index: ts.a.Index, Activity: ts.a.Activity,
		VM: vs.vm.ID, VMType: vs.vm.Type.Name,
		Attempt: ts.attempts, Duration: est, Args: ts.a.Args,
	}
	if err := m.tr.Send(vs.owner, spec); err != nil {
		return err
	}
	if m.sink != nil {
		m.sink.Emit(telemetry.ExecDispatchEvent{
			Task: ts.a.ID, Attempt: ts.attempts, VM: vs.vm.ID,
			Worker: vs.owner, Time: m.now, Lease: ts.lease,
		})
	}
	return nil
}

// onResult handles an attempt finishing. Results from superseded
// attempts (expired leases, dead workers) are ignored: the guard is
// what makes the master idempotent under at-least-once delivery.
func (m *Master) onResult(ev Event) {
	// Results carry the task's workflow index, so state resolves with
	// a bounds check instead of a map lookup; the ID match drops a
	// stale, cross-run or corrupt index as it would an unknown ID.
	if ev.TaskIndex < 0 || ev.TaskIndex >= len(m.tasks) || m.tasks[ev.TaskIndex].a.ID != ev.TaskID {
		return
	}
	ts := m.tasks[ev.TaskIndex]
	if ts.done || ts.abandoned || !ts.running || ts.attempts != ev.Attempt || ts.worker != ev.Worker {
		return
	}
	m.stop(ts)
	if ev.Err == "" {
		ts.done = true
		ts.finish = m.now
		m.done++
		m.finished = append(m.finished, int32(ts.a.Index))
		m.recordAttempt(ts, "ok", "")
		if m.store != nil {
			m.store.Add(provenance.Execution{
				WorkflowName: m.w.Name, RunID: m.runID,
				TaskID: ts.a.ID, Activity: ts.a.Activity,
				VMID: ts.vm, VMType: m.vmByID[ts.vm].vm.Type.Name,
				ReadyAt: ts.readyAt, StartAt: ts.start, FinishAt: ts.finish,
				Attempts: ts.attempts, Success: true,
			})
		}
		if m.sink != nil {
			m.sink.Emit(telemetry.ExecCompleteEvent{
				Task: ts.a.ID, Attempt: ts.attempts, VM: ts.vm,
				Worker: ts.worker, Start: ts.start, Finish: ts.finish,
			})
		}
		for _, c := range ts.a.Children() {
			cs := m.tasks[c.Index]
			cs.waiting--
			if cs.waiting == 0 && !cs.abandoned {
				m.release(cs)
			}
		}
		return
	}
	m.recordAttempt(ts, "failed", ev.Err)
	m.retry(ts, "failed")
}

// stop ends ts's attempt in flight — on its result, lease expiry,
// worker loss, preemption notice or VM kill: the attempt leaves its
// VM's running set, freeing the slot, and its lease timer.
func (m *Master) stop(ts *taskState) {
	ts.running = false
	m.clearTimer(ts)
	vs := m.vmByID[ts.vm]
	at, _ := slices.BinarySearch(vs.running, int32(ts.a.Index))
	vs.running = slices.Delete(vs.running, at, at+1)
	m.markVM(vs) // a freed slot may unblock this VM's backlog
}

// onHeartbeat extends the leases of the worker's in-flight attempts,
// which run on the worker's VMs. The order they are extended in is
// unobservable: the timer heap's root and its due entries do not
// depend on it.
func (m *Master) onHeartbeat(ev Event) {
	if !m.alive[ev.Worker] {
		return
	}
	running := 0
	for _, vs := range m.vms {
		if vs.owner != ev.Worker {
			continue
		}
		running += len(vs.running)
		for _, i := range vs.running {
			ts := m.tasks[i]
			if ext := m.now + m.leaseTTL; ext > ts.lease {
				ts.lease = ext
				m.setTimer(ts)
			}
		}
	}
	if m.sink != nil {
		m.sink.Emit(telemetry.ExecHeartbeatEvent{Worker: ev.Worker, Running: running, Time: m.now})
	}
}

// expireLeases retries every in-flight attempt whose lease has
// lapsed: the worker may be wedged, partitioned, or silently dead. The
// lapsed leases are the timer heap's due entries (passed backoff gates
// pop with them and are dropped); they are handled in task-index
// order, so the retries, repins and provenance rows come out as a
// scan of every task would produce them.
func (m *Master) expireLeases() {
	exp := m.expired[:0]
	for ts := m.liveRoot(); ts != nil && ts.wakeAt() <= m.now; ts = m.liveRoot() {
		m.popTimer(ts)
		if ts.running {
			exp = append(exp, ts.a.Index)
		}
	}
	slices.Sort(exp)
	for _, i := range exp {
		ts := m.tasks[i]
		m.stop(ts)
		m.recordAttempt(ts, "expired", "lease expired")
		m.retry(ts, "expired")
	}
	m.expired = exp[:0]
}

// onWorkerLost recovers from a worker death: its VMs die with it,
// in-flight attempts — their running sets merged in index order — are
// recorded lost and retried (repin moves them), and its queued tasks
// are re-enqueued, which repins them too. Idempotent per worker.
func (m *Master) onWorkerLost(worker int) error {
	if !m.alive[worker] {
		return nil
	}
	m.alive[worker] = false
	m.aliveCount--
	m.workerLost++
	var orphaned []int
	var lost []int32
	for _, vs := range m.vms {
		if vs.owner != worker {
			continue
		}
		vs.dead = true
		orphaned = append(orphaned, vs.queue...)
		vs.queue = nil
		lost = append(lost, vs.running...)
	}
	if m.aliveCount == 0 {
		return fmt.Errorf("exec: all %d workers lost with %d/%d activations finished",
			m.workerLost, m.done, m.w.Len())
	}
	slices.Sort(lost)
	for _, i := range lost {
		ts := m.tasks[i]
		m.stop(ts)
		m.recordAttempt(ts, "lost", "worker lost")
		m.retry(ts, "worker-lost")
	}
	sort.Ints(orphaned)
	for _, i := range orphaned {
		ts := m.tasks[i]
		ts.queued = false
		m.enqueue(ts) // repins via the dead-VM path
	}
	return nil
}

// retry schedules the next attempt with exponential backoff (none
// for worker loss — the failure wasn't the task's fault), or
// abandons the activation when its budget is spent.
func (m *Master) retry(ts *taskState, reason string) {
	if ts.attempts >= m.maxAttempts {
		if m.sink != nil {
			m.sink.Emit(telemetry.ExecRetryEvent{
				Task: ts.a.ID, Attempt: ts.attempts, VM: ts.vm, Worker: ts.worker,
				Reason: reason, Time: m.now, Abandoned: true,
			})
		}
		m.abandon(ts)
		return
	}
	if reason == "worker-lost" || reason == "preempted" {
		ts.nextAt = m.now
	} else {
		backoff := m.backoffBase * math.Pow(2, float64(ts.attempts-1))
		if backoff > m.backoffMax {
			backoff = m.backoffMax
		}
		ts.nextAt = m.now + backoff
	}
	m.retries++
	if m.sink != nil {
		m.sink.Emit(telemetry.ExecRetryEvent{
			Task: ts.a.ID, Attempt: ts.attempts, VM: ts.vm, Worker: ts.worker,
			Reason: reason, Time: m.now, NextAt: ts.nextAt,
		})
	}
	m.enqueue(ts)
}

// abandon gives up on an activation and cascades to every descendant,
// which can no longer become ready. Each doomed activation gets a
// failed Execution row so provenance accounts for the whole workflow.
func (m *Master) abandon(ts *taskState) {
	stack := []*taskState{ts}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.done || t.abandoned {
			continue
		}
		t.abandoned = true
		t.queued = false
		m.abandoned++
		m.recordAttempt(t, "abandoned", "attempt budget exhausted")
		if m.store != nil {
			vmType := ""
			if vs := m.vmByID[t.vm]; vs != nil {
				vmType = vs.vm.Type.Name
			}
			m.store.Add(provenance.Execution{
				WorkflowName: m.w.Name, RunID: m.runID,
				TaskID: t.a.ID, Activity: t.a.Activity,
				VMID: t.vm, VMType: vmType,
				ReadyAt: t.readyAt, StartAt: t.start, FinishAt: m.now,
				Attempts: t.attempts, Success: false,
			})
		}
		for _, c := range t.a.Children() {
			stack = append(stack, m.tasks[c.Index])
		}
	}
}

// recordAttempt appends one attempt row to the provenance store.
func (m *Master) recordAttempt(ts *taskState, outcome, errMsg string) {
	if m.store == nil {
		return
	}
	m.store.AddAttempt(provenance.Attempt{
		RunID: m.runID, TaskID: ts.a.ID, Activity: ts.a.Activity,
		Number: ts.attempts, VMID: ts.vm, Worker: ts.worker,
		StartAt: ts.start, EndAt: m.now,
		Outcome: outcome, Error: errMsg,
	})
}

// report assembles the run summary from current state. Results come
// from the completion log, already in finish-time order; within a run
// of equal finish times they go in index order (the log's sub-runs are
// sorted in place, which later calls find already sorted), then the
// unfinished activations follow in index order.
func (m *Master) report(wallStart time.Time) *Report {
	rep := &Report{
		Wall: time.Since(wallStart), Tasks: m.w.Len(), Done: m.done,
		Attempts: m.attempts, Retries: m.retries, Reassigned: m.reassigned,
		WorkerLost: m.workerLost, Abandoned: m.abandoned,
		Results: make([]TaskResult, 0, len(m.tasks)),
	}
	log := m.finished
	for at := 0; at < len(log); {
		f, end := m.tasks[log[at]].finish, at+1
		for end < len(log) && m.tasks[log[end]].finish == f {
			end++
		}
		if end-at > 1 {
			slices.Sort(log[at:end])
		}
		at = end
	}
	for _, i := range log {
		rep.Results = append(rep.Results, m.tasks[i].result())
	}
	if n := len(log); n > 0 {
		rep.Makespan = m.tasks[log[n-1]].finish
	}
	for _, ts := range m.tasks {
		if ts.abandoned {
			rep.Failed = append(rep.Failed, ts.a.ID)
		}
		if !ts.done {
			rep.Results = append(rep.Results, ts.result())
		}
	}
	if m.market != nil {
		rep.PreemptNotices, rep.Preempted = m.preemptNotices, m.preempted
		rep.Cordoned, rep.Remediated, rep.Degraded = m.cordonedCount, m.remediated, m.degradedCount
		cost := m.market.FleetCost(rep.Makespan)
		for _, b := range m.bills {
			if c := m.market.ReplacementCost(b.provider, b.typ, b.from, rep.Makespan); c > 0 {
				cost.Add(b.provider, c)
			}
		}
		rep.Cost = cost.Total
		rep.CostByProvider = cost.ByProvider
	}
	sort.Strings(rep.Failed)
	return rep
}

// result is the task's row of Report.Results.
func (ts *taskState) result() TaskResult {
	return TaskResult{
		ID: ts.a.ID, Activity: ts.a.Activity, VM: ts.vm, Worker: ts.worker,
		Attempts: ts.attempts, Start: ts.start, Finish: ts.finish, Done: ts.done,
	}
}
