package telemetry

import (
	"io"
	"sync"

	"reassign/internal/metrics"
)

// episodeWindow bounds the per-episode series an Aggregator keeps: its
// summaries cover the newest 65,536 learning episodes, while
// Snapshot.Episodes counts every one, so a long-running process such
// as the schedd daemon holds at most three windows of samples.
const episodeWindow = 1 << 16

// Aggregator is an in-memory Sink that folds the event stream into
// descriptive statistics. It is safe for concurrent use; Snapshot
// returns a consistent copy at any point, including mid-run.
type Aggregator struct {
	mu sync.Mutex

	episodes  int
	rewards   *metrics.Window
	makespans *metrics.Window
	qdeltas   *metrics.Window

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
	return &Aggregator{
		rewards:   metrics.NewWindow(episodeWindow),
		makespans: metrics.NewWindow(episodeWindow),
		qdeltas:   metrics.NewWindow(episodeWindow),
	}
}

// Emit implements Sink. Decisions are counted from the Placements and
// GreedyPlacements of episode events, the extraction pass's included,
// so the Aggregator does not ask for decision events. An EpisodeEvent
// value is folded as the pointer form is.
func (a *Aggregator) Emit(e Event) {
	switch ev := e.(type) {
	case *EpisodeEvent:
		a.episode(ev)
	case EpisodeEvent:
		a.episode(&ev)
	case *KernelEvent:
		a.kernel(ev)
	}
}

func (a *Aggregator) episode(ev *EpisodeEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.decisions += ev.Placements
	a.greedyDecisions += ev.GreedyPlacements
	if ev.Episode < 0 {
		return // plan extraction is not a learning episode
	}
	a.episodes++
	a.rewards.Add(ev.Reward)
	a.makespans.Add(ev.Makespan)
	a.qdeltas.Add(ev.QDelta)
}

func (a *Aggregator) kernel(ev *KernelEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.simRuns++
	a.kernelEvents += ev.Events
	a.kernelSched += ev.Scheduled
	a.freelistHits += ev.FreelistHits
	a.freelistMisses += ev.FreelistMisses
	if ev.MaxQueueDepth > a.maxQueueDepth {
		a.maxQueueDepth = ev.MaxQueueDepth
	}
}

// Snapshot is a consistent view of everything an Aggregator has seen.
type Snapshot struct {
	// Episodes counts learning episodes; Reward, Makespan and QDelta
	// summarise their per-episode series over the newest 65,536
	// episodes.
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
		Episodes:        a.episodes,
		Reward:          a.rewards.Summary(),
		Makespan:        a.makespans.Summary(),
		QDelta:          a.qdeltas.Summary(),
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
	p := metrics.NewPromWriter(w)
	summary := func(name, help string, sum metrics.Summary) {
		p.Gauge(name+"_mean", help+" (mean)", sum.Mean)
		p.Gauge(name+"_min", help+" (min)", sum.Min)
		p.Gauge(name+"_p50", help+" (median)", sum.P50)
		p.Gauge(name+"_p95", help+" (95th percentile)", sum.P95)
		p.Gauge(name+"_p99", help+" (99th percentile)", sum.P99)
		p.Gauge(name+"_max", help+" (max)", sum.Max)
	}
	p.Counter("reassign_episodes_total", "Learning episodes observed", s.Episodes)
	if s.Episodes > 0 {
		summary("reassign_episode_reward", "Per-episode accumulated crisp reward", s.Reward)
		summary("reassign_episode_makespan_seconds", "Per-episode simulated makespan", s.Makespan)
		summary("reassign_episode_q_delta", "Per-episode L2 norm of TD updates", s.QDelta)
	}
	p.Counter("reassign_decisions_total", "Scheduler decisions", s.Decisions)
	p.Counter("reassign_decisions_greedy_total", "Decisions that exploited the Q table", s.GreedyDecisions)
	p.Counter("reassign_sim_runs_total", "Simulator runs finished", s.SimRuns)
	p.Counter("reassign_des_events_total", "DES kernel events executed", s.KernelEvents)
	p.Counter("reassign_des_scheduled_total", "DES kernel events scheduled", s.KernelSched)
	p.Gauge("reassign_des_freelist_hit_rate", "Fraction of event schedules served from the freelist", s.FreelistHitRate())
	p.Gauge("reassign_des_queue_depth_max", "Future-event list high-water mark", s.MaxQueueDepth)
	return p.Err()
}
