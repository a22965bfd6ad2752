package telemetry

// Execution-stage events: the master/worker runtime (package exec)
// narrates a run as dispatches, heartbeats, retries, reassignments and
// completions. Times are virtual seconds from run start, the same
// clock the provenance records use.

// ExecDispatchEvent records one attempt being handed to a worker.
type ExecDispatchEvent struct {
	Task string `json:"task"`
	// Attempt is 1-based: the first dispatch of an activation is
	// attempt 1, each retry increments it.
	Attempt int     `json:"attempt"`
	VM      int     `json:"vm"`
	Worker  int     `json:"worker"`
	Time    float64 `json:"time"`
	// Lease is the virtual deadline by which the attempt must complete
	// or be heartbeat-extended before the master declares it expired.
	Lease float64 `json:"lease"`
}

// Kind implements Event.
func (ExecDispatchEvent) Kind() string { return "exec_dispatch" }

// ExecHeartbeatEvent records a worker liveness beat; the master
// extends the leases of the worker's in-flight attempts.
type ExecHeartbeatEvent struct {
	Worker int `json:"worker"`
	// Running counts the attempts in flight on the worker at the beat.
	Running int     `json:"running"`
	Time    float64 `json:"time"`
}

// Kind implements Event.
func (ExecHeartbeatEvent) Kind() string { return "exec_heartbeat" }

// ExecRetryEvent records an attempt failure and the scheduled retry.
type ExecRetryEvent struct {
	Task string `json:"task"`
	// Attempt is the attempt that failed.
	Attempt int `json:"attempt"`
	VM      int `json:"vm"`
	Worker  int `json:"worker"`
	// Reason is "failed", "expired", "worker-lost" or "preempted".
	Reason string  `json:"reason"`
	Time   float64 `json:"time"`
	// NextAt is when the retry becomes dispatchable (exponential
	// backoff for failures, immediate for worker loss).
	NextAt float64 `json:"next_at"`
	// Abandoned is set when the attempt budget is exhausted and no
	// retry is scheduled.
	Abandoned bool `json:"abandoned,omitempty"`
}

// Kind implements Event.
func (ExecRetryEvent) Kind() string { return "exec_retry" }

// ExecReassignEvent records an activation moving off a dead VM.
type ExecReassignEvent struct {
	Task   string  `json:"task"`
	FromVM int     `json:"from_vm"`
	ToVM   int     `json:"to_vm"`
	Time   float64 `json:"time"`
	// Policy names the repin policy that picked the new VM ("qtable" or
	// "earliest-finish").
	Policy string `json:"policy"`
}

// Kind implements Event.
func (ExecReassignEvent) Kind() string { return "exec_reassign" }

// ExecCompleteEvent records one activation finishing successfully.
type ExecCompleteEvent struct {
	Task    string  `json:"task"`
	Attempt int     `json:"attempt"`
	VM      int     `json:"vm"`
	Worker  int     `json:"worker"`
	Start   float64 `json:"start"`
	Finish  float64 `json:"finish"`
}

// Kind implements Event.
func (ExecCompleteEvent) Kind() string { return "exec_complete" }

// ExecRemediateEvent records the master buying an on-demand
// replacement for a preempted (or preemption-noticed) VM.
type ExecRemediateEvent struct {
	// FromVM is the doomed VM, NewVM its replacement.
	FromVM int     `json:"from_vm"`
	NewVM  int     `json:"new_vm"`
	Time   float64 `json:"time"`
	// BootAt is when the replacement becomes dispatchable.
	BootAt float64 `json:"boot_at"`
}

// Kind implements Event.
func (ExecRemediateEvent) Kind() string { return "exec_remediate" }

// ExecRunEvent summarises one master run.
type ExecRunEvent struct {
	Makespan    float64 `json:"makespan"`
	WallSeconds float64 `json:"wall_seconds"`
	Tasks       int     `json:"tasks"`
	Attempts    int     `json:"attempts"`
	Retries     int     `json:"retries"`
	Reassigned  int     `json:"reassigned"`
	WorkerLost  int     `json:"worker_lost"`
	Abandoned   int     `json:"abandoned"`
}

// Kind implements Event.
func (ExecRunEvent) Kind() string { return "exec_run" }
