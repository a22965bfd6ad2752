package core

import (
	"io"
	"math/rand"
	"runtime"
	"testing"

	"reassign/internal/rl"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
)

func replicaLearner(t testing.TB, k int, opts ...Option) *Learner {
	t.Helper()
	w := montage50(t, 1)
	f := fleet(t, 16)
	all := append([]Option{WithSeed(42), WithReplicas(k)}, opts...)
	l, err := NewLearner(Config{
		Workflow: w, Fleet: f, Episodes: 30,
		Sim: sim.Config{},
	}, all...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func requireSamePlan(t *testing.T, a, b Plan) {
	t.Helper()
	ae, be := a.Entries(), b.Entries()
	if len(ae) != len(be) {
		t.Fatalf("plan sizes differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("plan entry %d differs: %+v vs %+v", i, ae[i], be[i])
		}
	}
}

// TestWithReplicasValidation rejects non-positive replica counts.
func TestWithReplicasValidation(t *testing.T) {
	w := montage50(t, 1)
	f := fleet(t, 16)
	for _, k := range []int{0, -3} {
		if _, err := NewLearner(Config{Workflow: w, Fleet: f}, WithReplicas(k)); err == nil {
			t.Fatalf("WithReplicas(%d) should error", k)
		}
	}
}

// TestReplicasDeterministicAcrossGOMAXPROCS is the determinism
// contract: the ensemble's plans, makespans and seeds are
// byte-identical whether the replicas run serialised on one core or
// concurrently on several.
func TestReplicasDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) *ReplicaResult {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		rr, err := replicaLearner(t, 4).LearnReplicas()
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	serial := run(1)
	parallel := run(4)
	if serial.Best != parallel.Best {
		t.Fatalf("best replica: serial %d, parallel %d", serial.Best, parallel.Best)
	}
	for i := range serial.Results {
		if serial.Seeds[i] != parallel.Seeds[i] {
			t.Fatalf("replica %d seed: serial %d, parallel %d", i, serial.Seeds[i], parallel.Seeds[i])
		}
		s, p := serial.Results[i], parallel.Results[i]
		if s.PlanMakespan != p.PlanMakespan {
			t.Fatalf("replica %d plan makespan: serial %v, parallel %v", i, s.PlanMakespan, p.PlanMakespan)
		}
		if s.BestEpisodeMakespan != p.BestEpisodeMakespan {
			t.Fatalf("replica %d best episode: serial %v, parallel %v", i, s.BestEpisodeMakespan, p.BestEpisodeMakespan)
		}
		requireSamePlan(t, s.Plan, p.Plan)
		for e := range s.Episodes {
			if s.Episodes[e] != p.Episodes[e] {
				t.Fatalf("replica %d episode %d differs: %+v vs %+v", i, e, s.Episodes[e], p.Episodes[e])
			}
		}
	}
}

// TestReplicaMatchesSoloLearner: replica i is exactly the solo learner
// seeded with Seeds[i] — the split stream adds nothing beyond seeding.
func TestReplicaMatchesSoloLearner(t *testing.T) {
	rr, err := replicaLearner(t, 3).LearnReplicas()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rr.Results {
		solo, err := NewLearner(Config{
			Workflow: montage50(t, 1), Fleet: fleet(t, 16), Episodes: 30,
			Sim: sim.Config{},
		}, WithSeed(rr.Seeds[i]))
		if err != nil {
			t.Fatal(err)
		}
		got, err := solo.Learn()
		if err != nil {
			t.Fatal(err)
		}
		if got.PlanMakespan != want.PlanMakespan {
			t.Fatalf("replica %d: solo makespan %v, replica %v", i, got.PlanMakespan, want.PlanMakespan)
		}
		requireSamePlan(t, got.Plan, want.Plan)
	}
}

// TestLearnDelegatesToReplicas: Learn() on a replicated learner
// returns exactly the ensemble's best result.
func TestLearnDelegatesToReplicas(t *testing.T) {
	rr, err := replicaLearner(t, 3).LearnReplicas()
	if err != nil {
		t.Fatal(err)
	}
	res, err := replicaLearner(t, 3).Learn()
	if err != nil {
		t.Fatal(err)
	}
	best := rr.BestResult()
	if res.PlanMakespan != best.PlanMakespan {
		t.Fatalf("Learn makespan %v, ensemble best %v", res.PlanMakespan, best.PlanMakespan)
	}
	requireSamePlan(t, res.Plan, best.Plan)
	// Best selection invariant: no replica beats the winner; ties go to
	// the lowest index.
	for i, r := range rr.Results {
		if r.PlanMakespan < best.PlanMakespan {
			t.Fatalf("replica %d (%v) beats declared best (%v)", i, r.PlanMakespan, best.PlanMakespan)
		}
		if r.PlanMakespan == best.PlanMakespan && i < rr.Best {
			t.Fatalf("tie should pick replica %d, picked %d", i, rr.Best)
		}
	}
}

// TestReplicaSharedSinkRace drives replica learning through a shared
// fan-out sink; `go test -race` turns any unsynchronised emission into
// a failure. The aggregator also proves events arrived from every
// replica.
func TestReplicaSharedSinkRace(t *testing.T) {
	agg := telemetry.NewAggregator()
	sink := telemetry.Multi(agg, telemetry.NewJSONL(io.Discard))
	rr, err := replicaLearner(t, 4, WithSink(sink)).LearnReplicas()
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(rr.Results))
	}
	s := agg.Snapshot()
	// 4 replicas × (30 episodes + 1 extraction) simulator runs.
	if want := 4 * 31; s.SimRuns != want {
		t.Fatalf("aggregated SimRuns = %d, want %d", s.SimRuns, want)
	}
}

// TestReplicaTableContinuation: replicas learning from a continuation
// table never mutate the caller's table, and the ensemble average is
// usable for the next execution.
func TestReplicaTableContinuation(t *testing.T) {
	w := montage50(t, 1)
	f := fleet(t, 16)
	seedTable := rl.NewTable(w.Len(), len(f.VMs), rand.New(rand.NewSource(9)), 1.0)
	// Materialise some entries so the copy has content to preserve.
	for task := 0; task < 5; task++ {
		for vm := 0; vm < 3; vm++ {
			seedTable.Set(rl.Key{Task: task, VM: vm}, float64(task*10+vm))
		}
	}
	before := seedTable.Snapshot()

	l, err := NewLearner(Config{
		Workflow: w, Fleet: f, Episodes: 10, Sim: sim.Config{},
	}, WithSeed(5), WithReplicas(3), WithTable(seedTable))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := l.LearnReplicas()
	if err != nil {
		t.Fatal(err)
	}
	after := seedTable.Snapshot()
	if len(before) != len(after) {
		t.Fatalf("caller's table grew: %d -> %d entries", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("caller's table mutated at %+v", before[i].Key)
		}
	}
	ens := rr.EnsembleTable(1)
	if ens.Len() == 0 {
		t.Fatal("ensemble table is empty")
	}
	// Continuation must accept the ensemble table.
	l2, err := NewLearner(Config{
		Workflow: w, Fleet: f, Episodes: 5, Sim: sim.Config{},
	}, WithSeed(6), WithTable(ens))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Learn(); err != nil {
		t.Fatal(err)
	}
}
