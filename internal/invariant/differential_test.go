package invariant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// freshVsReset runs cfg twice — once on a fresh engine, once on an
// engine that previously ran a different seed and was Reset — and
// demands bit-identical results. Both runs are audited.
func freshVsReset(t *testing.T, aud *Auditor, w *dag.Workflow, fl *cloud.Fleet, cfg sim.Config) {
	t.Helper()
	cfg.Hook = aud
	fresh, err := sim.Run(w, fl, &sched.MCT{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(w, fl, &sched.MCT{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the engine with a different seed first, so the reset run
	// has stale state (ready queues, busy slots, resident files) to
	// overwrite — the harder equivalence.
	other := cfg
	other.Seed = cfg.Seed + 1000
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Reset(other)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Reset(cfg)
	got, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := DiffResults(fresh, got); len(diffs) > 0 {
		for _, d := range diffs {
			t.Errorf("  %s", d)
		}
		t.Fatalf("fresh and reset runs diverge (%d fields)", len(diffs))
	}
}

// TestFreshVsResetScenarioGrid is the byte-stable-trace contract:
// across seeds and the scenario grid (fluctuation, data transfer, a
// fleet of multi-vCPU VMs only), a fresh engine and a reset one must
// produce bit-identical results. Every run is audited too.
func TestFreshVsResetScenarioGrid(t *testing.T) {
	w := montage(t, 3)
	fl16 := fleet16(t)
	// Multi-vCPU fleet: several concurrent tasks share each VM.
	multi := cloud.MustFleet("multi", []cloud.VMType{cloud.T2Large, cloud.T22XLarge}, []int{2, 1})
	fluct := cloud.DefaultFluctuation()

	cases := []struct {
		name  string
		fleet *cloud.Fleet
		cfg   sim.Config
	}{
		{"plain", fl16, sim.Config{}},
		{"fluct", fl16, sim.Config{Fluct: &fluct}},
		{"dt", fl16, sim.Config{DataTransfer: true}},
		{"multi-vcpu", multi, sim.Config{Fluct: &fluct}},
	}

	aud := New()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{3, 17, 99} {
				cfg := tc.cfg
				cfg.Seed = seed
				freshVsReset(t, aud, w, tc.fleet, cfg)
			}
		})
	}
	if err := aud.Err(); err != nil {
		dumpViolations(t, aud)
		t.Fatal(err)
	}
}

// TestFreshVsResetClustered runs the same contract on a clustered
// workflow with data transfer.
func TestFreshVsResetClustered(t *testing.T) {
	cw, err := sim.Clustering{Horizontal: true, GroupSize: 3, Vertical: true}.Apply(montage(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	aud := New()
	for _, seed := range []int64{3, 17, 99} {
		freshVsReset(t, aud, cw.Workflow, fleet16(t), sim.Config{Seed: seed, DataTransfer: true})
	}
	if err := aud.Err(); err != nil {
		dumpViolations(t, aud)
		t.Fatal(err)
	}
}

// TestPooledVsFreshReplayDifferential trains one learner on engines
// of its own and one on a shared engine pool, pins what both learned
// to a digest, then replays both final plans through the audited
// simulator: the traces must be bit-identical, not just the makespans.
// The digest was recorded when learners could still be given a map
// backed table; it matched the dense one.
func TestPooledVsFreshReplayDifferential(t *testing.T) {
	w := montage(t, 6)
	fl := fleet16(t)
	learn := func(opts ...core.Option) *core.Result {
		l, err := core.NewLearner(core.Config{Workflow: w, Fleet: fl, Episodes: 8},
			append(opts, core.WithSeed(17))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Learn()
		if err != nil {
			t.Fatal(err)
		}
		const want = "13b43ead24bbecb50b574050ece990598ea575ef72f260085ed1c6fc7a467c36"
		if got := learnedDigest(res); got != want {
			t.Errorf("learned digest %s, want %s", got, want)
		}
		return res
	}
	a := learn()
	b := learn(core.WithEnginePool(sim.NewPool()))

	replay := func(p core.Plan) *sim.Result {
		assign := make(map[string]int, p.Len())
		for _, e := range p.Entries() {
			assign[e.Activation] = e.VM
		}
		aud := New()
		res, err := sim.Run(w, fl, &sched.Plan{PlanName: "replay", Assign: assign},
			sim.Config{Seed: 5, Hook: aud})
		if err != nil {
			t.Fatal(err)
		}
		if err := aud.Err(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	if diffs := DiffResults(replay(a.Plan), replay(b.Plan)); len(diffs) > 0 {
		for _, d := range diffs {
			t.Errorf("  %s", d)
		}
		t.Fatal("fresh-trained and pool-trained plan replays diverge")
	}
}

// learnedDigest is a SHA-256 over a learning run's table Snapshot,
// plan and plan makespan.
func learnedDigest(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, e := range res.Table.Snapshot() {
		put(uint64(e.Key.Task))
		put(uint64(e.Key.VM))
		put(math.Float64bits(e.Value))
	}
	for _, e := range res.Plan.Entries() {
		h.Write([]byte(e.Activation))
		put(uint64(e.VM))
	}
	put(math.Float64bits(res.PlanMakespan))
	return hex.EncodeToString(h.Sum(nil))
}

// TestSoloVsReplicaDifferential checks the replica-splitting
// contract: replica i of a K-replica ensemble is bit-identical to a
// solo learner run with the seed the ensemble assigned to it.
func TestSoloVsReplicaDifferential(t *testing.T) {
	w := montage(t, 1)
	fl := fleet16(t)
	ens, err := core.NewLearner(core.Config{Workflow: w, Fleet: fl, Episodes: 10},
		core.WithSeed(42), core.WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ens.LearnReplicas()
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range rr.Seeds {
		solo, err := core.NewLearner(core.Config{Workflow: w, Fleet: fl, Episodes: 10},
			core.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		sres, err := solo.Learn()
		if err != nil {
			t.Fatal(err)
		}
		rres := rr.Results[i]
		if sres.PlanMakespan != rres.PlanMakespan {
			t.Fatalf("replica %d: plan makespan %v, solo %v", i, rres.PlanMakespan, sres.PlanMakespan)
		}
		se, re := sres.Plan.Entries(), rres.Plan.Entries()
		if len(se) != len(re) {
			t.Fatalf("replica %d: plan sizes %d vs %d", i, len(re), len(se))
		}
		for j := range se {
			if se[j] != re[j] {
				t.Fatalf("replica %d: plan entry %d diverges: %+v vs %+v", i, j, re[j], se[j])
			}
		}
	}
}

// TestHEFTPlannedMakespanOracle uses HEFT's static schedule length as
// a lower-bound oracle: under zero delays and zero fluctuation the
// simulated replay of the plan can queue but never beat the plan's
// own estimate, because the simulator charges exactly the execution
// times HEFT planned with.
func TestHEFTPlannedMakespanOracle(t *testing.T) {
	fl := fleet16(t)
	cases := []struct {
		name string
		w    *dag.Workflow
	}{
		{"montage50", montage(t, 3)},
		{"forkjoin", trace.ForkJoin(rand.New(rand.NewSource(4)), 3, 8, 50)},
		{"chains", trace.Chains(rand.New(rand.NewSource(5)), 6, 4, 30)},
	}
	const eps = 1e-9
	aud := New()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &sched.HEFT{}
			res, err := sim.Run(tc.w, fl, h, sim.Config{Hook: aud})
			if err != nil {
				t.Fatal(err)
			}
			if res.State != sim.FinishedOK {
				t.Fatalf("state = %v", res.State)
			}
			if h.PlannedMakespan <= 0 {
				t.Fatalf("PlannedMakespan = %v, want > 0", h.PlannedMakespan)
			}
			if res.Makespan < h.PlannedMakespan-eps {
				t.Fatalf("simulated makespan %v beats the static plan %v: the oracle bound is broken",
					res.Makespan, h.PlannedMakespan)
			}
		})
	}
	if err := aud.Err(); err != nil {
		dumpViolations(t, aud)
		t.Fatal(err)
	}
}

// TestDiffResultsAndClone covers the differential helpers themselves:
// a clone diffs clean against its original, stays independent of it,
// and every mutated field is reported.
func TestDiffResultsAndClone(t *testing.T) {
	res, err := sim.Run(montage(t, 3), fleet16(t), &sched.MCT{}, sim.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	clone := CloneResult(res)
	if diffs := DiffResults(res, clone); len(diffs) != 0 {
		t.Fatalf("clone diffs against original: %v", diffs)
	}

	// Mutating the clone must not touch the original...
	clone.Records[0].Success = !clone.Records[0].Success
	for k := range clone.Plan {
		clone.Plan[k]++
		break
	}
	if diffs := DiffResults(res, CloneResult(res)); len(diffs) != 0 {
		t.Fatalf("original changed under clone mutation: %v", diffs)
	}
	// ...and each mutation must be reported.
	clone.Makespan += 1
	clone.Cost += 0.5
	diffs := DiffResults(res, clone)
	if len(diffs) < 4 {
		t.Fatalf("only %d diffs reported for 4 mutations: %v", len(diffs), diffs)
	}
}
