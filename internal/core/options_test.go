package core

import (
	"math/rand"
	"testing"

	"reassign/internal/rl"
	"reassign/internal/telemetry"
)

func TestNewLearnerValidation(t *testing.T) {
	w := montage50(t, 4)
	fl := fleet(t, 16)

	if _, err := NewLearner(Config{Fleet: fl}); err == nil {
		t.Error("missing workflow accepted")
	}
	if _, err := NewLearner(Config{Workflow: w}); err == nil {
		t.Error("missing fleet accepted")
	}
	if _, err := NewLearner(Config{Workflow: w, Fleet: fl, Episodes: -1}); err == nil {
		t.Error("negative episode budget accepted")
	}
	if _, err := NewLearner(Config{Workflow: w, Fleet: fl, Params: Params{Alpha: 7}}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewLearner(Config{Workflow: w, Fleet: fl}, WithTable(nil)); err == nil {
		t.Error("WithTable(nil) accepted")
	}
}

func TestNewLearnerDefaults(t *testing.T) {
	w := montage50(t, 4)
	fl := fleet(t, 16)
	l, err := NewLearner(Config{Workflow: w, Fleet: fl})
	if err != nil {
		t.Fatal(err)
	}
	if l.episodes != DefaultEpisodes {
		t.Errorf("episodes = %d, want %d", l.episodes, DefaultEpisodes)
	}
	if l.params.Alpha != DefaultParams().Alpha || l.params.Gamma != DefaultParams().Gamma {
		t.Errorf("params = %+v, want DefaultParams", l.params)
	}
	if l.sink != nil {
		t.Error("sink should default to nil (telemetry disabled)")
	}
}

func TestNewLearnerOptions(t *testing.T) {
	w := montage50(t, 4)
	fl := fleet(t, 16)
	table := rl.NewTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(5)), 1.0)
	agg := telemetry.NewAggregator()
	l, err := NewLearner(Config{Workflow: w, Fleet: fl, Episodes: 3},
		WithSeed(42), WithSink(agg), WithTable(table),
		WithAlphaSchedule(rl.LinearDecay{Start: 1.0, End: 0.1, Over: 3}),
		WithEpsilonSchedule(rl.Const(0.1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if l.seed != 42 || l.table != table || l.sink != telemetry.Sink(agg) {
		t.Errorf("options not applied: %+v", l)
	}
	if l.alphaSchedule == nil || l.epsilonSchedule == nil {
		t.Error("schedules not applied")
	}
	// WithSink(Discard) normalises to nil so the hot path stays guarded
	// by a plain nil check.
	l2, err := NewLearner(Config{Workflow: w, Fleet: fl}, WithSink(telemetry.Discard))
	if err != nil {
		t.Fatal(err)
	}
	if l2.sink != nil {
		t.Error("Discard sink not normalised to nil")
	}
}

func TestLearnZeroEpisodesDefaults(t *testing.T) {
	// Episodes 0 means "the paper's default budget", not "skip learning":
	// the result must report DefaultEpisodes learning episodes.
	l, err := NewLearner(Config{Workflow: montage50(t, 4), Fleet: fleet(t, 16)}, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Learn()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Episodes) != DefaultEpisodes {
		t.Fatalf("ran %d episodes, want %d", len(res.Episodes), DefaultEpisodes)
	}
}
