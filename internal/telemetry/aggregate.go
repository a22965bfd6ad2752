package telemetry

import (
	"fmt"
	"io"
	"sync"

	"reassign/internal/metrics"
)

// Aggregator is an in-memory Sink that folds the event stream into
// descriptive statistics. It is safe for concurrent use; Snapshot
// returns a consistent copy at any point, including mid-run.
type Aggregator struct {
	mu sync.Mutex

	rewards   []float64
	makespans []float64
	qdeltas   []float64

	decisions       int
	greedyDecisions int

	simRuns        int
	kernelEvents   int64
	kernelSched    int64
	freelistHits   int64
	freelistMisses int64
	maxQueueDepth  int
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{}
}

// Emit implements Sink.
func (a *Aggregator) Emit(e Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch ev := e.(type) {
	case EpisodeEvent:
		if ev.Episode < 0 {
			return // plan extraction is not a learning episode
		}
		a.rewards = append(a.rewards, ev.Reward)
		a.makespans = append(a.makespans, ev.Makespan)
		a.qdeltas = append(a.qdeltas, ev.QDelta)
	case *DecisionEvent:
		a.decisions++
		if ev.Greedy {
			a.greedyDecisions++
		}
	case KernelEvent:
		a.simRuns++
		a.kernelEvents += ev.Events
		a.kernelSched += ev.Scheduled
		a.freelistHits += ev.FreelistHits
		a.freelistMisses += ev.FreelistMisses
		if ev.MaxQueueDepth > a.maxQueueDepth {
			a.maxQueueDepth = ev.MaxQueueDepth
		}
	}
}

// Snapshot is a consistent view of everything an Aggregator has seen.
type Snapshot struct {
	// Episodes counts learning episodes; Reward, Makespan and QDelta
	// summarise their per-episode series.
	Episodes int
	Reward   metrics.Summary
	Makespan metrics.Summary
	QDelta   metrics.Summary

	// Decisions counts scheduler decisions; GreedyDecisions the subset
	// that exploited the Q table.
	Decisions       int
	GreedyDecisions int

	// SimRuns counts finished simulator runs; the kernel counters
	// aggregate their DES stats.
	SimRuns        int
	KernelEvents   int64
	KernelSched    int64
	FreelistHits   int64
	FreelistMisses int64
	MaxQueueDepth  int
}

// FreelistHitRate returns the fraction of event schedules served from
// the DES freelist (0 when nothing was scheduled).
func (s Snapshot) FreelistHitRate() float64 {
	total := s.FreelistHits + s.FreelistMisses
	if total == 0 {
		return 0
	}
	return float64(s.FreelistHits) / float64(total)
}

// GreedyRate returns the fraction of decisions that exploited the Q
// table (0 when no decision was recorded).
func (s Snapshot) GreedyRate() float64 {
	if s.Decisions == 0 {
		return 0
	}
	return float64(s.GreedyDecisions) / float64(s.Decisions)
}

// Snapshot returns a copy of the current aggregates.
func (a *Aggregator) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Snapshot{
		Episodes:        len(a.rewards),
		Reward:          metrics.Summarize(a.rewards),
		Makespan:        metrics.Summarize(a.makespans),
		QDelta:          metrics.Summarize(a.qdeltas),
		Decisions:       a.decisions,
		GreedyDecisions: a.greedyDecisions,
		SimRuns:         a.simRuns,
		KernelEvents:    a.kernelEvents,
		KernelSched:     a.kernelSched,
		FreelistHits:    a.freelistHits,
		FreelistMisses:  a.freelistMisses,
		MaxQueueDepth:   a.maxQueueDepth,
	}
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (untyped metrics would also scrape; we declare counters and
// gauges for clarity). Metric names share the reassign_ prefix.
func (s Snapshot) WriteProm(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	counter := func(name, help string, v any) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v any) {
		p("# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	summary := func(name, help string, sum metrics.Summary) {
		gauge(name+"_mean", help+" (mean)", sum.Mean)
		gauge(name+"_min", help+" (min)", sum.Min)
		gauge(name+"_p50", help+" (median)", sum.P50)
		gauge(name+"_p95", help+" (95th percentile)", sum.P95)
		gauge(name+"_p99", help+" (99th percentile)", sum.P99)
		gauge(name+"_max", help+" (max)", sum.Max)
	}
	counter("reassign_episodes_total", "Learning episodes observed", s.Episodes)
	if s.Episodes > 0 {
		summary("reassign_episode_reward", "Per-episode accumulated crisp reward", s.Reward)
		summary("reassign_episode_makespan_seconds", "Per-episode simulated makespan", s.Makespan)
		summary("reassign_episode_q_delta", "Per-episode L2 norm of TD updates", s.QDelta)
	}
	counter("reassign_decisions_total", "Scheduler decisions", s.Decisions)
	counter("reassign_decisions_greedy_total", "Decisions that exploited the Q table", s.GreedyDecisions)
	counter("reassign_sim_runs_total", "Simulator runs finished", s.SimRuns)
	counter("reassign_des_events_total", "DES kernel events executed", s.KernelEvents)
	counter("reassign_des_scheduled_total", "DES kernel events scheduled", s.KernelSched)
	gauge("reassign_des_freelist_hit_rate", "Fraction of event schedules served from the freelist", s.FreelistHitRate())
	gauge("reassign_des_queue_depth_max", "Future-event list high-water mark", s.MaxQueueDepth)
	return err
}
