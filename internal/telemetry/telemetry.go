// Package telemetry is the instrumentation layer threaded through the
// learning and execution stages: a Sink interface receiving typed
// events — per-episode learning stats, scheduler decisions, DES kernel
// counters, and the exec master's dispatches, retries and completions
// (exec.go) — with built-in sinks for JSONL
// trace files (NewJSONL), an in-memory aggregator feeding
// metrics.Summary (NewAggregator, with a Prometheus-text-format
// snapshot writer), and fan-out composition (Multi).
//
// The layer is zero-cost when disabled: instrumented code holds a Sink
// that is nil by default and guards every emission with a nil check,
// so the allocation-free learning hot path is untouched unless a sink
// is installed. Sinks must be safe for concurrent use — replica-parallel
// learning and the schedd daemon's job workers share one sink.
package telemetry

// Event is one typed telemetry record. The concrete types below are
// the full event vocabulary; Kind returns the stable wire name used
// by the JSONL encoding.
type Event interface {
	Kind() string
}

// EpisodeEvent records one learning episode (package core): the
// quantities behind the paper's Tables II–III and reward curves.
type EpisodeEvent struct {
	// Episode is the zero-based episode number; -1 marks the final
	// greedy plan-extraction pass.
	Episode int `json:"episode"`
	// Makespan is the episode's simulated makespan in virtual seconds.
	Makespan float64 `json:"makespan"`
	// Reward is the episode's accumulated crisp reward.
	Reward float64 `json:"reward"`
	// Alpha and Epsilon are the learning rate and exploitation
	// probability in effect (after schedules).
	Alpha   float64 `json:"alpha"`
	Epsilon float64 `json:"epsilon"`
	// QDelta is the L2 norm of all TD updates applied this episode —
	// a convergence signal that decays as the table settles.
	QDelta float64 `json:"q_delta"`
	// Updates counts TD updates applied this episode.
	Updates int `json:"updates"`
	// State is the workflow's terminal state ("finished-ok", ...).
	State string `json:"state"`
	// Decisions and Events are the episode's scheduler invocations and
	// DES kernel steps.
	Decisions int   `json:"decisions"`
	Events    int64 `json:"events"`
	// Replica identifies the emitting learner in replica-parallel
	// learning (WithReplicaLabel); 0 otherwise.
	Replica int `json:"replica"`
	// Placements counts the episode's activation→VM decisions (one per
	// DecisionEvent a sink that asks would have received), and
	// GreedyPlacements those that exploited the Q table. They are how
	// an Aggregator counts decisions without hearing of each one; a
	// trace's decision lines already carry the same facts, so they stay
	// out of the JSON encoding.
	Placements       int `json:"-"`
	GreedyPlacements int `json:"-"`
}

// Kind implements Event.
func (EpisodeEvent) Kind() string { return "episode" }

// DecisionEvent records one scheduling decision of the learning agent:
// activation → VM, with the greedy-vs-explore flag of the ε policy.
// There is one per activation per episode, so it is sent only to sinks
// that ask for it (WantsDecisions), as a *DecisionEvent into a buffer
// the agent overwrites for its next decision; see Sink for what that
// asks of sinks.
type DecisionEvent struct {
	// Episode is the emitting episode; -1 for plan extraction.
	Episode int `json:"episode"`
	// Time is the simulation clock at the decision.
	Time float64 `json:"time"`
	// Task is the activation's dense index; Activation its ID.
	Task       int    `json:"task"`
	Activation string `json:"activation"`
	// VM is the chosen VM ID.
	VM int `json:"vm"`
	// Greedy reports whether the policy exploited the Q table (true)
	// or explored (false). Policies that cannot tell report false.
	Greedy bool `json:"greedy"`
	// Replica identifies the emitting learner in replica-parallel
	// learning; 0 otherwise.
	Replica int `json:"replica"`
}

// Kind implements Event.
func (*DecisionEvent) Kind() string { return "decision" }

// KernelEvent summarises one simulation run's DES kernel counters
// (package sim emits it when the run finishes).
type KernelEvent struct {
	// Scheduler is the algorithm name driving the run.
	Scheduler string `json:"scheduler"`
	// State is the workflow's terminal state.
	State string `json:"state"`
	// Makespan is the run's makespan in virtual seconds.
	Makespan float64 `json:"makespan"`
	// Decisions counts scheduler invocations.
	Decisions int `json:"decisions"`
	// Events counts DES events executed; Scheduled counts events
	// queued (executed + canceled + pending at exit).
	Events    int64 `json:"events"`
	Scheduled int64 `json:"scheduled"`
	// FreelistHits/Misses split event allocations between recycled
	// and fresh; their ratio is the freelist hit rate.
	FreelistHits   int64 `json:"freelist_hits"`
	FreelistMisses int64 `json:"freelist_misses"`
	// MaxQueueDepth is the future-event list's high-water mark.
	MaxQueueDepth int `json:"max_queue_depth"`
	// Replica identifies the emitting learner in replica-parallel
	// learning; 0 otherwise.
	Replica int `json:"replica"`
}

// Kind implements Event.
func (KernelEvent) Kind() string { return "kernel" }

// Sink receives telemetry events. Implementations must be safe for
// concurrent use. A nil Sink means telemetry is disabled; emitting
// code checks for nil before constructing events, which keeps the
// disabled path free of allocations.
//
// The learning path emits *EpisodeEvent, *DecisionEvent and
// *KernelEvent: pointers into buffers the emitter keeps and overwrites
// for its next event, so that a learning job boxes no event. Each is
// only valid until Emit returns; a sink reads (or copies) what it needs
// inside Emit and never retains the pointer. Every other event is an
// immutable value; code outside the learning path may also emit an
// EpisodeEvent by value, which the Aggregator folds as it does the
// pointer form.
//
// Decision events go only to a sink that asks for them: one with a
// WantsDecisions() bool method that returns true (see the
// WantsDecisions function). Emitters check once per episode.
type Sink interface {
	Emit(Event)
}

// WantsDecisions reports whether s asks for per-decision events: it
// has a WantsDecisions() bool method that returns true. A nil sink, or
// one without the method, does not ask.
func WantsDecisions(s Sink) bool {
	d, ok := s.(interface{ WantsDecisions() bool })
	return ok && d.WantsDecisions()
}

// Discard is a Sink that drops every event — the explicit no-op for
// call sites that want a non-nil sink.
var Discard Sink = discard{}

type discard struct{}

func (discard) Emit(Event) {}

// Multi fans events out to every non-nil sink, in order, except that
// decision events reach only the members that ask for them; the result
// asks if any member does. The filter keeps what a member hears
// independent of its neighbours: a sink that does not ask hears no
// decisions, whether or not a trace beside it does. Multi returns nil
// when no usable sink remains, so callers can pass the result straight
// to a (nil-checked) sink field.
func Multi(sinks ...Sink) Sink {
	out := make(multi, 0, len(sinks))
	for _, s := range sinks {
		if s != nil && s != Discard {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

type multi []Sink

func (m multi) Emit(e Event) {
	_, decision := e.(*DecisionEvent)
	for _, s := range m {
		if !decision || WantsDecisions(s) {
			s.Emit(e)
		}
	}
}

// WantsDecisions asks for decision events if any member does.
func (m multi) WantsDecisions() bool {
	for _, s := range m {
		if WantsDecisions(s) {
			return true
		}
	}
	return false
}

// WithReplicaLabel wraps s so that every *EpisodeEvent, *DecisionEvent
// and *KernelEvent passing through carries the given replica number,
// set through the pointer; other events pass unchanged. The wrapper
// asks for decision events when s does. Replica-parallel learning
// installs one wrapper per replica over a shared sink, so interleaved
// events stay attributable. A nil (or Discard) sink stays disabled:
// the wrapper is nil too.
func WithReplicaLabel(s Sink, replica int) Sink {
	if s == nil || s == Discard {
		return nil
	}
	return &replicaLabel{sink: s, replica: replica}
}

type replicaLabel struct {
	sink    Sink
	replica int
}

func (r *replicaLabel) Emit(e Event) {
	switch ev := e.(type) {
	case *EpisodeEvent:
		ev.Replica = r.replica
	case *DecisionEvent:
		ev.Replica = r.replica
	case *KernelEvent:
		ev.Replica = r.replica
	}
	r.sink.Emit(e)
}

// WantsDecisions asks for decision events when the wrapped sink does.
func (r *replicaLabel) WantsDecisions() bool { return WantsDecisions(r.sink) }
