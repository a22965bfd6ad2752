package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"reassign/internal/randsrc"
	"reassign/internal/telemetry"
)

// traceRun performs one fully seeded 5-episode learning run with a
// JSONL sink and returns the raw trace bytes.
func traceRun(t *testing.T) []byte {
	t.Helper()
	w := montage50(t, 6)
	fl := fleet(t, 16)
	var buf bytes.Buffer
	jsonl := telemetry.NewJSONL(&buf)
	l, err := NewLearner(Config{Workflow: w, Fleet: fl, Episodes: 5},
		WithSeed(7), WithSink(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Learn(); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteStable is the golden guarantee of the JSONL encoding:
// a seeded run traces to byte-identical output every time, because
// events carry no wall-clock fields and the envelope's field order is
// fixed by the struct definitions.
func TestTraceByteStable(t *testing.T) {
	a := traceRun(t)
	b := traceRun(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identically seeded runs produced different traces")
	}
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
}

// TestTraceShape decodes the trace and checks the event stream has the
// structure the docs promise: one kernel + one episode record per
// episode, decision records for every scheduling decision, and a final
// extraction pass marked episode -1.
func TestTraceShape(t *testing.T) {
	const episodes = 5
	var envelopes []struct {
		Kind  string          `json:"kind"`
		Event json.RawMessage `json:"event"`
	}
	for _, line := range strings.Split(strings.TrimSpace(string(traceRun(t))), "\n") {
		var env struct {
			Kind  string          `json:"kind"`
			Event json.RawMessage `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		envelopes = append(envelopes, env)
	}

	counts := map[string]int{}
	extraction := 0
	var lastEpisode telemetry.EpisodeEvent
	for _, env := range envelopes {
		counts[env.Kind]++
		if env.Kind == "episode" {
			var ev telemetry.EpisodeEvent
			if err := json.Unmarshal(env.Event, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Episode == -1 {
				extraction++
			} else {
				lastEpisode = ev
			}
		}
	}
	if counts["episode"] != episodes+1 {
		t.Errorf("episode records = %d, want %d learning + 1 extraction", counts["episode"], episodes+1)
	}
	if extraction != 1 {
		t.Errorf("extraction passes = %d, want 1", extraction)
	}
	if counts["kernel"] != episodes+1 {
		t.Errorf("kernel records = %d, want %d", counts["kernel"], episodes+1)
	}
	// Every scheduling decision in every run is traced: 50 activations
	// per simulation, 5 learning episodes + 1 extraction.
	if counts["decision"] != 50*(episodes+1) {
		t.Errorf("decision records = %d, want %d", counts["decision"], 50*(episodes+1))
	}
	if lastEpisode.Makespan <= 0 || lastEpisode.Updates == 0 || lastEpisode.QDelta <= 0 {
		t.Errorf("episode record looks empty: %+v", lastEpisode)
	}
	if lastEpisode.Alpha != DefaultParams().Alpha || lastEpisode.Epsilon != DefaultParams().Epsilon {
		t.Errorf("episode params: α=%v ε=%v", lastEpisode.Alpha, lastEpisode.Epsilon)
	}
	if lastEpisode.State != "successfully finished" {
		t.Errorf("episode state = %q", lastEpisode.State)
	}
}

// TestSinkDoesNotPerturbLearning is the zero-cost contract's
// observable half: enabling telemetry must not consume extra
// randomness, so an instrumented run and a bare run from the same seed
// learn the identical plan and trajectory.
func TestSinkDoesNotPerturbLearning(t *testing.T) {
	w := montage50(t, 6)
	fl := fleet(t, 16)
	run := func(sink telemetry.Sink) *Result {
		opts := []Option{WithSeed(9)}
		if sink != nil {
			opts = append(opts, WithSink(sink))
		}
		l, err := NewLearner(Config{Workflow: w, Fleet: fl, Episodes: 10}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Learn()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(nil)
	traced := run(telemetry.NewAggregator())

	if bare.PlanMakespan != traced.PlanMakespan {
		t.Errorf("plan makespans diverge: %v (bare) vs %v (traced)", bare.PlanMakespan, traced.PlanMakespan)
	}
	for i := range bare.Episodes {
		if bare.Episodes[i].Makespan != traced.Episodes[i].Makespan ||
			bare.Episodes[i].Reward != traced.Episodes[i].Reward {
			t.Fatalf("episode %d diverges with sink installed", i)
		}
	}
	for _, e := range bare.Plan.Entries() {
		if vm, _ := traced.Plan.VM(e.Activation); vm != e.VM {
			t.Fatalf("plans diverge at %s", e.Activation)
		}
	}
}

// TestAggregatorOnLearning wires an Aggregator through a learning run
// and sanity-checks the folded statistics.
func TestAggregatorOnLearning(t *testing.T) {
	w := montage50(t, 6)
	fl := fleet(t, 16)
	agg := telemetry.NewAggregator()
	l, err := NewLearner(Config{Workflow: w, Fleet: fl, Episodes: 8}, WithSeed(3), WithSink(agg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Learn(); err != nil {
		t.Fatal(err)
	}
	s := agg.Snapshot()
	if s.Episodes != 8 {
		t.Errorf("Episodes = %d, want 8", s.Episodes)
	}
	if s.SimRuns != 9 { // 8 learning + 1 extraction
		t.Errorf("SimRuns = %d, want 9", s.SimRuns)
	}
	if s.Decisions != 50*9 {
		t.Errorf("Decisions = %d, want %d", s.Decisions, 50*9)
	}
	// ε is the paper's exploitation probability: ε=0.1 exploits ~10% of
	// learning decisions, plus the all-greedy extraction pass — so the
	// greedy share lands near (0.1·8+1)/9 ≈ 0.2.
	if r := s.GreedyRate(); r < 0.05 || r > 0.4 {
		t.Errorf("GreedyRate = %v, want ≈ 0.2", r)
	}
	if s.Makespan.Mean <= 0 || s.KernelEvents == 0 || s.MaxQueueDepth == 0 {
		t.Errorf("kernel aggregates look empty: %+v", s)
	}
	if s.FreelistHitRate() <= 0 {
		t.Error("freelist never hit across 9 runs")
	}
}

// decisionCounter counts the decision events it hears of; when asks is
// false it does not ask for them, so it should hear of none.
type decisionCounter struct {
	asks bool

	mu        sync.Mutex
	decisions int
	greedy    int
}

func (c *decisionCounter) WantsDecisions() bool { return c.asks }

func (c *decisionCounter) Emit(e telemetry.Event) {
	if d, ok := e.(*telemetry.DecisionEvent); ok {
		c.mu.Lock()
		c.decisions++
		if d.Greedy {
			c.greedy++
		}
		c.mu.Unlock()
	}
}

// TestDecisionCountsByEpisode: the Aggregator counts decisions and
// greedy decisions from the placement counts on episode events, and
// they equal the decision events a sink that asks hears of, on a plain
// learner, under replica-parallel learning, alone (when nothing asks
// for decisions at all) and beside a JSONL trace, whose decision lines
// are then the reference. No sink that does not ask hears of a
// decision.
func TestDecisionCountsByEpisode(t *testing.T) {
	const episodes = 8
	w := montage50(t, 6)
	fl := fleet(t, 16)
	learn := func(sink telemetry.Sink, replicas int) {
		t.Helper()
		l, err := NewLearner(Config{Workflow: w, Fleet: fl, Episodes: episodes},
			WithSeed(3), WithReplicas(replicas), WithSink(sink))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Learn(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, agg *telemetry.Aggregator, decisions, greedy int) {
		t.Helper()
		s := agg.Snapshot()
		if s.Decisions != decisions || s.GreedyDecisions != greedy {
			t.Errorf("%s: Aggregator counted %d decisions (%d greedy), want %d (%d)",
				name, s.Decisions, s.GreedyDecisions, decisions, greedy)
		}
	}
	for _, replicas := range []int{1, 3} {
		agg := telemetry.NewAggregator()
		ref, quiet := &decisionCounter{asks: true}, &decisionCounter{}
		learn(telemetry.Multi(agg, ref, quiet), replicas)
		// Every activation of every run, extraction included.
		if want := 50 * (episodes + 1) * replicas; ref.decisions != want || ref.greedy == 0 {
			t.Fatalf("replicas=%d: the asking sink heard %d decisions (%d greedy), want %d",
				replicas, ref.decisions, ref.greedy, want)
		}
		if quiet.decisions != 0 {
			t.Errorf("replicas=%d: a sink that does not ask heard %d decisions", replicas, quiet.decisions)
		}
		check("beside an asking sink", agg, ref.decisions, ref.greedy)
		alone := telemetry.NewAggregator()
		learn(alone, replicas)
		check("alone", alone, ref.decisions, ref.greedy)
	}

	var buf bytes.Buffer
	agg, quiet := telemetry.NewAggregator(), &decisionCounter{}
	learn(telemetry.Multi(telemetry.NewJSONL(&buf), agg, quiet), 1)
	decisions, greedy := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, `{"kind":"decision"`) {
			decisions++
			if strings.Contains(line, `"greedy":true`) {
				greedy++
			}
		}
	}
	if decisions != 50*(episodes+1) {
		t.Fatalf("the trace holds %d decision lines, want %d", decisions, 50*(episodes+1))
	}
	if quiet.decisions != 0 {
		t.Errorf("beside a trace, a sink that does not ask heard %d decisions", quiet.decisions)
	}
	check("beside a trace", agg, decisions, greedy)
}

// cancellingCounter asks for decision events, cancels its context at
// decision number cancelAt, and splits what it hears into the decisions
// of episodes that ended with an episode event and those of the episode
// in flight.
type cancellingCounter struct {
	cancel   context.CancelFunc
	cancelAt int

	heard, done, doneGreedy int
	pending, pendingGreedy  int
}

func (c *cancellingCounter) WantsDecisions() bool { return true }

func (c *cancellingCounter) Emit(e telemetry.Event) {
	switch ev := e.(type) {
	case *telemetry.DecisionEvent:
		c.heard++
		c.pending++
		if ev.Greedy {
			c.pendingGreedy++
		}
		if c.heard == c.cancelAt {
			c.cancel()
		}
	case *telemetry.EpisodeEvent:
		c.done += c.pending
		c.doneGreedy += c.pendingGreedy
		c.pending, c.pendingGreedy = 0, 0
	}
}

// TestDecisionCountsOnCancel pins what the Aggregator counts when a
// learn is cancelled mid-episode: decisions are counted by the episode,
// so the placements of an episode that ends without an episode event
// are not counted, though a trace beside it holds their decision lines.
func TestDecisionCountsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agg := telemetry.NewAggregator()
	c := &cancellingCounter{cancel: cancel, cancelAt: 3*50 + 20} // inside episode 3
	l, err := NewLearner(Config{Workflow: montage50(t, 6), Fleet: fleet(t, 16), Episodes: 8},
		WithSeed(3), WithContext(ctx), WithSink(telemetry.Multi(agg, c)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Learn(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Learn: %v, want context.Canceled", err)
	}
	if c.done != 3*50 || c.pending == 0 {
		t.Fatalf("heard %d decisions of completed episodes and %d of the cancelled one, want 150 and some",
			c.done, c.pending)
	}
	if s := agg.Snapshot(); s.Decisions != c.done || s.GreedyDecisions != c.doneGreedy || s.Episodes != 3 {
		t.Errorf("Aggregator counted %d decisions (%d greedy) over %d episodes, want %d (%d) over 3",
			s.Decisions, s.GreedyDecisions, s.Episodes, c.done, c.doneGreedy)
	}
}

// aggregatorExtraAllocs is what a warm learn with an Aggregator sink
// may allocate beyond the same learn without a sink: nothing. Every
// event the learning path emits points into a buffer its emitter keeps.
const aggregatorExtraAllocs = 0

// TestAggregatorSinkAllocs: instrumenting a warm learn (a continuation
// table, as a daemon job warm-started from its cache) with the daemon's
// Aggregator allocates no more than the bare learn, plus
// aggregatorExtraAllocs.
func TestAggregatorSinkAllocs(t *testing.T) {
	w := montage50(t, 1)
	fl := fleet(t, 16)
	cfg := Config{Workflow: w, Fleet: fl, Episodes: 10}
	l, err := NewLearner(cfg, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Learn()
	if err != nil {
		t.Fatal(err)
	}
	agg := telemetry.NewAggregator()
	for i := 0; i < 1<<16; i++ { // fill the episode windows, as a long-lived daemon has
		agg.Emit(telemetry.EpisodeEvent{Episode: i})
	}
	allocs := func(sink telemetry.Sink) float64 {
		return testing.AllocsPerRun(10, func() {
			l, err := NewLearner(cfg, WithSeed(2), WithSink(sink),
				WithTable(res.Table.Copy(rand.New(randsrc.New(3)))))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Learn(); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, instrumented := allocs(nil), allocs(agg)
	t.Logf("allocs per warm learn: %v bare, %v with an Aggregator", bare, instrumented)
	if instrumented > bare+aggregatorExtraAllocs {
		t.Errorf("a warm learn allocates %v times with an Aggregator sink, %v without; want at most %d more",
			instrumented, bare, aggregatorExtraAllocs)
	}
	if s := agg.Snapshot(); s.Decisions == 0 || s.SimRuns == 0 {
		t.Fatalf("the Aggregator heard nothing: %+v", s)
	}
}
