package sim

// Hook observes simulation runs from inside the engine — the
// structural counterpart of telemetry.Sink, which only sees run
// summaries. A Hook is a factory: the engine calls RunStart once per
// run (fresh or Reset) and routes every subsequent observation to the
// returned RunHook, so one Hook can audit concurrent engines (replica
// learning) without shared mutable per-run state.
//
// Hooks are nil by default and every engine call site is nil-guarded,
// so the disabled path costs one pointer comparison and allocates
// nothing — the learning hot path is untouched unless a hook is
// installed. The invariant auditor (package invariant) is the
// canonical implementation.
type Hook interface {
	// RunStart is called once per run after per-run state is
	// initialised and before any event executes. Returning nil disables
	// observation for this run.
	RunStart(env *Env) RunHook
}

// RunHook receives the engine-internal transitions of one simulation
// run, in event-execution order. All calls happen on the goroutine
// driving the run; implementations need no internal locking for
// per-run state.
//
// The *Task and *VMState pointers identify live engine state: hooks
// may read them but must not mutate them, and must not retain them
// past RunEnd (Reset reuses the backing arrays).
type RunHook interface {
	// Decision fires after the scheduling context is built and before
	// the scheduler's Pick. ctx contents are only valid for the call.
	Decision(now float64, ctx *Context)
	// TaskReady fires when a task enters the ready queue.
	TaskReady(now float64, t *Task)
	// TaskStart fires when an assignment is accepted and the task
	// occupies a VM slot.
	TaskStart(now float64, t *Task, v *VMState)
	// TaskFinish fires when the task's one execution completes; the
	// task has succeeded, its terminal state.
	TaskFinish(now float64, t *Task, v *VMState)
	// RunEnd fires once with the finished result, after every field of
	// res (records, stats, cost, kernel counters) is final.
	// It is not called for runs that end in an error.
	RunEnd(res *Result)
}
