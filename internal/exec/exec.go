// Package exec is the execution-stage runtime of the SciCumulus-RL
// pipeline: a master/worker plan executor that takes the scheduling
// plan learned in simulation (core.Plan) and actually runs the
// workflow — the Go analogue of the paper's SCMaster driving MPI
// SCSlaves on real VMs.
//
// The Master owns all scheduling state: it releases dependency-free
// activations, dispatches each to the worker owning its plan-pinned
// VM, tracks a lease per in-flight attempt (extended by worker
// heartbeats), retries failed or expired attempts with exponential
// backoff up to a capped budget, and — when a worker dies mid-run —
// reassigns its orphaned activations to surviving VMs: the learned Q
// table's next best (WithQTable), or else the earliest finish by
// backlog plus estimate, HEFT-style. Every attempt, including retries
// and abandons, is recorded into the provenance store, closing the
// paper's cross-execution learning loop: provenance out of execution,
// Q-table seeded from provenance (core.SeedTable).
//
// Workers are dumb executors behind a Transport. Two transports ship:
// InProc, a deterministic virtual-time transport whose runs are
// bit-identical for a fixed seed (the test and CI grade), and TCP, a
// framed binary protocol over real sockets that cmd/execworker processes
// join over loopback or a real network, standing in for the MPI
// workers. What a worker does with an attempt is a pluggable Runner:
// simulated durations, scaled wall-clock sleeps, or real
// exec.Command invocations of the DAX job argv.
package exec

import (
	"context"
	"errors"
	"math"

	"reassign/internal/dag"
)

// TaskSpec describes one attempt handed to a worker. All times are
// virtual seconds.
type TaskSpec struct {
	TaskID   string `json:"task_id"`
	Index    int    `json:"index"`
	Activity string `json:"activity"`
	VM       int    `json:"vm"`
	VMType   string `json:"vm_type,omitempty"`
	// Attempt is 1-based.
	Attempt int `json:"attempt"`
	// Duration is the master's estimated execution time in virtual
	// seconds: the simulated runner's actual duration, the sleep
	// runner's (scaled) sleep, ignored by the command runner.
	Duration float64 `json:"duration"`
	// Args is the job argv for command runners (DAX <argument>).
	Args []string `json:"args,omitempty"`
}

// EventKind discriminates master-side transport events.
type EventKind int

const (
	// EvTick is a timeout: no event arrived before the deadline the
	// master passed to Next. The master checks leases and backoffs.
	EvTick EventKind = iota
	// EvResult reports an attempt finishing on a worker (Err non-empty
	// on failure).
	EvResult
	// EvHeartbeat is a worker liveness beat; the master extends the
	// leases of the worker's in-flight attempts.
	EvHeartbeat
	// EvWorkerLost reports a worker dying (connection lost, injected
	// fault). Its attempts and pinned queue entries must be recovered.
	EvWorkerLost
	// EvPreemptNotice warns that a VM will be killed at
	// Event.Market.KillAt
	// (spot preemption notice). Synthesised master-side by MarketFeed;
	// never crosses the worker wire.
	EvPreemptNotice
	// EvVMKill executes a traced preemption: the VM in Event.VM dies.
	// Synthesised master-side by MarketFeed.
	EvVMKill
	// EvVMHealth reports a VM health change: tasks on Event.VM now run
	// Event.Factor times slower (1 = recovered). Synthesised
	// master-side by MarketFeed.
	EvVMHealth
)

// String names the kind for logs and errors.
func (k EventKind) String() string {
	switch k {
	case EvTick:
		return "tick"
	case EvResult:
		return "result"
	case EvHeartbeat:
		return "heartbeat"
	case EvWorkerLost:
		return "worker-lost"
	case EvPreemptNotice:
		return "preempt-notice"
	case EvVMKill:
		return "vm-kill"
	case EvVMHealth:
		return "vm-health"
	}
	return "unknown"
}

// Event is one master-side occurrence. Time is virtual seconds from
// run start and must be non-decreasing in delivery order.
type Event struct {
	Kind   EventKind
	Time   float64
	Worker int
	// Result fields (EvResult only).
	TaskID string
	// TaskIndex is the task's workflow index, echoed from the
	// dispatched TaskSpec so the master resolves the task without a
	// map lookup. A result whose TaskIndex and TaskID disagree is
	// dropped.
	TaskIndex int
	Attempt   int
	Err       string
	// Market is set on market lifecycle events only (EvPreemptNotice,
	// EvVMKill, EvVMHealth) and nil on every worker event. The
	// payload rides behind a pointer so market-free runs — the hot
	// path — pay one nil word per buffered event, not three fields.
	Market *MarketPayload
}

// MarketPayload is the payload of a synthesised market lifecycle
// event: the affected VM, the announced kill time (preemption
// notices) and the health factor (health events, 1 = recovered).
// These events are built master-side by MarketFeed and never cross
// the worker wire, so the wire codecs are untouched.
type MarketPayload struct {
	VM     int
	KillAt float64
	Factor float64
}

// Forever is the deadline meaning "block until the next event".
var Forever = math.Inf(1)

// ErrIdle is returned by a transport's Next when it can prove no
// event will ever arrive (e.g. the deterministic transport's queue is
// empty and the deadline is Forever). It signals a master logic error
// — the master should never wait unboundedly without outstanding
// work.
var ErrIdle = errors.New("exec: transport idle with no pending events")

// Transport connects the master to its worker pool.
//
// The master is single-threaded: Open, Send, Next and Close are
// called from one goroutine, in that order of life cycle.
// Implementations may deliver events from internal goroutines but
// must serialise them through Next.
type Transport interface {
	// Open readies the transport and returns the IDs of the joined
	// workers (for TCP, it blocks until the expected number of
	// execworker processes have connected).
	Open(ctx context.Context) ([]int, error)
	// Send dispatches one attempt to a worker. A send error means the
	// worker is unreachable; the master treats it as lost.
	Send(worker int, t TaskSpec) error
	// Next returns the next event, or an EvTick when the virtual
	// deadline passes first. Forever blocks until an event arrives.
	Next(ctx context.Context, deadline float64) (Event, error)
	// Close releases the transport (idempotent).
	Close() error
}

// Flusher is an optional Transport extension for transports that
// stage Send into per-connection batches (TCP). The
// master calls Flush once per event-loop turn, after dispatching into
// the freed slots, so a wave of assignments leaves in one write per
// worker. Flush returns the IDs of workers whose batch could not be
// delivered; the master treats each as lost. Transports without
// batching (InProc) simply don't implement it.
type Flusher interface {
	Flush() []int
}

// workflowBinder is implemented by transports that decode results off
// a wire (TCP) and by wrappers that forward to one (Fault, MarketFeed):
// New binds the run's read-only workflow, so a result's task ID
// resolves by index to the workflow's own string.
type workflowBinder interface {
	bind(w *dag.Workflow)
}

// bindWorkflow hands w to tr if tr decodes against one.
func bindWorkflow(tr Transport, w *dag.Workflow) {
	if b, ok := tr.(workflowBinder); ok {
		b.bind(w)
	}
}

// Runner executes one attempt and reports its duration in virtual
// seconds. The deterministic transport calls it synchronously on the
// master goroutine; the TCP worker calls it from one goroutine per
// attempt, so implementations must be safe for concurrent use.
type Runner interface {
	Run(ctx context.Context, t TaskSpec) (float64, error)
}

// InstantRunner marks a Runner whose Run never blocks (simulated
// execution). A worker session may then execute attempts inline on
// its read loop — no executor goroutines, no handoffs — and answer a
// whole dispatch wave with one coalesced write. Runners that sleep or
// do real work must not claim this: inline execution would serialise
// them.
type InstantRunner interface {
	Runner
	Instant() bool
}
