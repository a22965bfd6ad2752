package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"reassign/internal/metrics"
)

type capture struct {
	mu     sync.Mutex
	events []Event
}

func (c *capture) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func TestMultiSkipsNilAndDiscard(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
	if Multi(nil, Discard, nil) != nil {
		t.Error("Multi of only nil/Discard should be nil")
	}
	c := &capture{}
	if got := Multi(nil, c, Discard); got != c {
		t.Errorf("single usable sink should be returned unwrapped, got %T", got)
	}
	c2 := &capture{}
	m := Multi(c, nil, c2)
	m.Emit(EpisodeEvent{Episode: 3})
	if len(c.events) != 1 || len(c2.events) != 1 {
		t.Errorf("fan-out delivered %d/%d events, want 1/1", len(c.events), len(c2.events))
	}
}

// asking is a capture sink that asks for decision events.
type asking struct{ capture }

func (*asking) WantsDecisions() bool { return true }

// TestWantsDecisions: the JSONL trace asks for decision events; the
// Aggregator, Discard and a plain sink do not; Multi asks when a member
// does and forwards decisions to those members alone, other events to
// all; a replica label asks as its inner sink does.
func TestWantsDecisions(t *testing.T) {
	jsonl := NewJSONL(&bytes.Buffer{})
	agg := NewAggregator()
	for _, tc := range []struct {
		name string
		sink Sink
		want bool
	}{
		{"nil", nil, false},
		{"Discard", Discard, false},
		{"capture", &capture{}, false},
		{"Aggregator", agg, false},
		{"JSONL", jsonl, true},
		{"Multi(Aggregator, capture)", Multi(agg, &capture{}), false},
		{"Multi(Aggregator, JSONL)", Multi(agg, jsonl), true},
		{"replica(Aggregator)", WithReplicaLabel(agg, 1), false},
		{"replica(JSONL)", WithReplicaLabel(jsonl, 1), true},
		{"replica(Multi(JSONL, Aggregator))", WithReplicaLabel(Multi(jsonl, agg), 1), true},
	} {
		if got := WantsDecisions(tc.sink); got != tc.want {
			t.Errorf("WantsDecisions(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}

	plain, asks := &capture{}, &asking{}
	m := Multi(plain, asks)
	m.Emit(&DecisionEvent{Greedy: true})
	m.Emit(&EpisodeEvent{Episode: 2})
	if len(plain.events) != 1 || plain.events[0].Kind() != "episode" {
		t.Errorf("a member that does not ask got %v, want the episode alone", plain.events)
	}
	if len(asks.events) != 2 {
		t.Errorf("a member that asks got %d events, want 2", len(asks.events))
	}
}

// TestReplicaLabelPointers: the label is set through the pointer on
// the learning path's pointer events, which pass through unboxed.
func TestReplicaLabelPointers(t *testing.T) {
	c := &asking{}
	r := WithReplicaLabel(c, 3)
	ep, dec, kern := &EpisodeEvent{}, &DecisionEvent{}, &KernelEvent{}
	for _, e := range []Event{ep, dec, kern} {
		r.Emit(e)
	}
	if ep.Replica != 3 || dec.Replica != 3 || kern.Replica != 3 {
		t.Errorf("pointer events labelled %d/%d/%d, want 3", ep.Replica, dec.Replica, kern.Replica)
	}
	if got := c.events[0]; got != Event(ep) {
		t.Errorf("the pointer was not passed through: %T", got)
	}
}

func TestEventKinds(t *testing.T) {
	kinds := map[Event]string{
		EpisodeEvent{}:   "episode",
		&DecisionEvent{}: "decision",
		KernelEvent{}:    "kernel",
	}
	for ev, want := range kinds {
		if got := ev.Kind(); got != want {
			t.Errorf("%T.Kind() = %q, want %q", ev, got, want)
		}
	}
}

func TestJSONLEncoding(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(EpisodeEvent{Episode: 0, Makespan: 12.5, Reward: -3, Alpha: 0.5, Epsilon: 0.1})
	j.Emit(&DecisionEvent{Episode: 0, Task: 4, Activation: "mProject_4", VM: 2, Greedy: true})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], `{"kind":"episode","event":{"episode":0,`) {
		t.Errorf("episode line = %s", lines[0])
	}
	if !strings.Contains(lines[1], `"kind":"decision"`) || !strings.Contains(lines[1], `"greedy":true`) {
		t.Errorf("decision line = %s", lines[1])
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(failWriter{})
	j.Emit(EpisodeEvent{})
	if j.Err() == nil {
		t.Fatal("write failure not surfaced")
	}
	j.Emit(EpisodeEvent{}) // must not panic once failed
	if j.Err() == nil {
		t.Fatal("error not sticky")
	}
}

func TestAggregator(t *testing.T) {
	a := NewAggregator()
	a.Emit(EpisodeEvent{Episode: 0, Reward: -2, Makespan: 100, QDelta: 4, Placements: 1})
	a.Emit(&EpisodeEvent{Episode: 1, Reward: -1, Makespan: 80, QDelta: 2, Placements: 1, GreedyPlacements: 1})
	// The extraction pass is no learning episode, but its placements count.
	a.Emit(&EpisodeEvent{Episode: -1, Reward: 0, Makespan: 70, Placements: 1, GreedyPlacements: 1})
	a.Emit(&DecisionEvent{Greedy: true}) // counted from the episodes, not here
	a.Emit(&KernelEvent{Events: 10, Scheduled: 12, FreelistHits: 9, FreelistMisses: 1, MaxQueueDepth: 5})
	a.Emit(&KernelEvent{Events: 10, Scheduled: 10, FreelistHits: 0, FreelistMisses: 10, MaxQueueDepth: 3})

	s := a.Snapshot()
	if s.Episodes != 2 {
		t.Errorf("Episodes = %d, want 2 (extraction pass must not count)", s.Episodes)
	}
	if s.Makespan.Mean != 90 {
		t.Errorf("Makespan.Mean = %v, want 90", s.Makespan.Mean)
	}
	if s.Decisions != 3 || s.GreedyDecisions != 2 {
		t.Errorf("decisions %d/%d, want 3/2", s.Decisions, s.GreedyDecisions)
	}
	if got := s.GreedyRate(); got < 0.66 || got > 0.67 {
		t.Errorf("GreedyRate = %v", got)
	}
	if s.SimRuns != 2 || s.KernelEvents != 20 || s.MaxQueueDepth != 5 {
		t.Errorf("kernel aggregates: %+v", s)
	}
	if got := s.FreelistHitRate(); got != 0.45 {
		t.Errorf("FreelistHitRate = %v, want 0.45", got)
	}

	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"reassign_episodes_total 2",
		"reassign_decisions_total 3",
		"reassign_des_freelist_hit_rate 0.45",
		"reassign_des_queue_depth_max 5",
		"# TYPE reassign_episodes_total counter",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom output missing %q:\n%s", want, prom)
		}
	}
}

func TestEmptySnapshotRates(t *testing.T) {
	var s Snapshot
	if s.FreelistHitRate() != 0 || s.GreedyRate() != 0 {
		t.Error("empty snapshot rates must be 0, not NaN")
	}
	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Error("empty snapshot renders NaN")
	}
}

// TestAggregatorWindow overruns the episode window: Episodes and
// reassign_episodes_total count every episode, while each series keeps
// the newest episodeWindow samples and summarises exactly those.
func TestAggregatorWindow(t *testing.T) {
	const k = 1000
	a := NewAggregator()
	var rewards, makespans, qdeltas []float64
	for i := 0; i < episodeWindow+k; i++ {
		ev := EpisodeEvent{
			Episode:  i,
			Reward:   float64(i%97) / 7,
			Makespan: 500 + float64(i%1013)/3,
			QDelta:   1 / float64(i+1),
		}
		rewards = append(rewards, ev.Reward)
		makespans = append(makespans, ev.Makespan)
		qdeltas = append(qdeltas, ev.QDelta)
		a.Emit(ev)
	}
	s := a.Snapshot()
	if s.Episodes != episodeWindow+k {
		t.Fatalf("Episodes = %d, want %d", s.Episodes, episodeWindow+k)
	}
	for _, series := range []struct {
		name string
		w    *metrics.Window
		sum  metrics.Summary
		all  []float64
	}{
		{"reward", a.rewards, s.Reward, rewards},
		{"makespan", a.makespans, s.Makespan, makespans},
		{"q_delta", a.qdeltas, s.QDelta, qdeltas},
	} {
		if n := len(series.w.Samples()); n != episodeWindow {
			t.Errorf("%s holds %d samples, want %d", series.name, n, episodeWindow)
		}
		if want := metrics.Summarize(series.all[k:]); series.sum != want {
			t.Errorf("%s summary %+v, want the newest window's %+v", series.name, series.sum, want)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reassign_episodes_total 66536\n") {
		t.Error("reassign_episodes_total is not the all-time count")
	}
}

// TestAggregatorIgnoresExecEvents pins the premise that lets schedd run
// its exec master without a sink: the Aggregator counts no execution
// event, so its exposition is the same bytes with or without them. If
// the Aggregator ever counts one, this fails, and the daemon's exec
// master has to be given the sink again.
func TestAggregatorIgnoresExecEvents(t *testing.T) {
	a := NewAggregator()
	a.Emit(EpisodeEvent{Episode: 0, Reward: -2, Makespan: 100, QDelta: 4, Placements: 1, GreedyPlacements: 1})
	a.Emit(&KernelEvent{Events: 10, Scheduled: 12, FreelistHits: 9, FreelistMisses: 1, MaxQueueDepth: 5})
	prom := func() []byte {
		var buf bytes.Buffer
		if err := a.Snapshot().WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := prom()
	for _, ev := range []Event{
		ExecDispatchEvent{Task: "a", Attempt: 1, VM: 2, Worker: 1, Time: 3, Lease: 33},
		ExecHeartbeatEvent{Worker: 1, Running: 2, Time: 5},
		ExecRetryEvent{Task: "a", Attempt: 1, VM: 2, Worker: 1, Reason: "failed", Time: 6, NextAt: 8},
		ExecReassignEvent{Task: "a", FromVM: 2, ToVM: 3, Time: 6, Policy: "qtable"},
		ExecCompleteEvent{Task: "a", Attempt: 2, VM: 3, Worker: 0, Start: 8, Finish: 12},
		ExecRemediateEvent{FromVM: 2, NewVM: 9, Time: 7, BootAt: 67},
		ExecRunEvent{Makespan: 12, WallSeconds: 0.01, Tasks: 1, Attempts: 2, Retries: 1, Reassigned: 1},
	} {
		a.Emit(ev)
	}
	if after := prom(); !bytes.Equal(after, before) {
		t.Errorf("exec events changed the exposition:\n--- before\n%s\n--- after\n%s", before, after)
	}
}
