package sim

import (
	"math"
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/trace"
)

// cloneResult deep-copies the fields a Reset would invalidate, so a
// previous run's outcome can be compared after the engine re-runs.
func cloneResult(r *Result) *Result {
	c := *r
	c.Records = append([]Record(nil), r.Records...)
	c.PerVM = make(map[int]VMStats, len(r.PerVM))
	for k, v := range r.PerVM {
		c.PerVM[k] = v
	}
	if r.Plan != nil {
		c.Plan = make(map[string]int, len(r.Plan))
		for k, v := range r.Plan {
			c.Plan[k] = v
		}
	}
	return &c
}

// requireEqualRuns fails unless the two results describe bit-identical
// simulations. Kernel counters are deliberately excluded: a reset
// engine serves more events from the DES freelist than a fresh one.
func requireEqualRuns(t *testing.T, fresh, reset *Result) {
	t.Helper()
	if fresh.State != reset.State {
		t.Fatalf("state: fresh %v, reset %v", fresh.State, reset.State)
	}
	if fresh.Makespan != reset.Makespan {
		t.Fatalf("makespan: fresh %v, reset %v", fresh.Makespan, reset.Makespan)
	}
	if fresh.Decisions != reset.Decisions || fresh.Events != reset.Events {
		t.Fatalf("decisions/events: fresh %d/%d, reset %d/%d",
			fresh.Decisions, fresh.Events, reset.Decisions, reset.Events)
	}
	if len(fresh.Records) != len(reset.Records) {
		t.Fatalf("records: fresh %d, reset %d", len(fresh.Records), len(reset.Records))
	}
	for i := range fresh.Records {
		if fresh.Records[i] != reset.Records[i] {
			t.Fatalf("record %d: fresh %+v, reset %+v", i, fresh.Records[i], reset.Records[i])
		}
	}
	if len(fresh.Plan) != len(reset.Plan) {
		t.Fatalf("plan size: fresh %d, reset %d", len(fresh.Plan), len(reset.Plan))
	}
	for k, v := range fresh.Plan {
		if reset.Plan[k] != v {
			t.Fatalf("plan[%s]: fresh %d, reset %d", k, v, reset.Plan[k])
		}
	}
	if len(fresh.PerVM) != len(reset.PerVM) {
		t.Fatalf("per-VM size: fresh %d, reset %d", len(fresh.PerVM), len(reset.PerVM))
	}
	for k, v := range fresh.PerVM {
		if reset.PerVM[k] != v {
			t.Fatalf("per-VM[%d]: fresh %+v, reset %+v", k, v, reset.PerVM[k])
		}
	}
}

// TestEngineResetMatchesFreshRun is the Reset equivalence contract: a
// reset-then-run must be bit-identical to a fresh engine's run under
// the same config, with and without fluctuation.
func TestEngineResetMatchesFreshRun(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(3)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	fluct := cloud.DefaultFluctuation()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Seed: 7}},
		{"fluct", Config{Seed: 7, Fluct: &fluct}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := Run(w, fleet, &greedyFirst{}, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := cloneResult(fresh)

			eng, err := NewEngine(w, fleet, &greedyFirst{}, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Run with a different seed first, so the reset run has stale
			// state to overwrite (the harder equivalence).
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			other := tc.cfg
			other.Seed = 99
			eng.Reset(other)
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			eng.Reset(tc.cfg)
			got, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			requireEqualRuns(t, want, got)
		})
	}
}

func TestEngineSecondRunWithoutResetErrors(t *testing.T) {
	w := chain(1, 2)
	eng, err := NewEngine(w, singleVMFleet(), &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("second Run without Reset should error")
	}
	eng.Reset(Config{})
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
}

// TestEstimateExecMemo checks the memoised estimate path against the
// direct computation, including rebuilds when Reset flips the
// DataTransfer flag.
func TestEstimateExecMemo(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(3)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	check := func(eng *Engine, dt bool) {
		t.Helper()
		env := eng.env
		for _, a := range w.Activations() {
			for _, vm := range fleet.VMs {
				want := a.Runtime / vm.Type.Speed
				if dt && vm.Type.NetMBps > 0 {
					want += float64(a.InputBytes()) / (vm.Type.NetMBps * 1e6)
				}
				if got := env.EstimateExec(a, vm); math.Abs(got-want) > 1e-12 {
					t.Fatalf("EstimateExec(%s, vm%d) dt=%v = %v, want %v", a.ID, vm.ID, dt, got, want)
				}
			}
		}
	}
	eng, err := NewEngine(w, fleet, &greedyFirst{}, Config{DataTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	check(eng, true)
	// Flipping DataTransfer through Reset must rebuild the matrix.
	eng.Reset(Config{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	check(eng, false)
}

// TestEstimateExecMemoBounded pins the memo's memory contract at
// extreme scale: estimating across a 10k-activation workflow on a
// 2304-VM fleet must cache at most baseDurRowCap rows (≈ 64 MB of
// float64 cells) rather than materialising the full 10k × 2304
// rectangle, while rows past the cap still return exact values via
// recomputation.
func TestEstimateExecMemoBounded(t *testing.T) {
	w := trace.MontageN(rand.New(rand.NewSource(5)), 10000)
	fleet, err := cloud.FleetScaled(4096)
	if err != nil {
		t.Fatal(err)
	}
	nv := len(fleet.VMs)
	env := &Env{fleet: fleet, workflow: w, acts: w.Activations(), cfg: Config{DataTransfer: true}}

	rowCap := env.baseDurRowCap()
	if rowCap <= 0 || rowCap >= w.Len() {
		t.Fatalf("baseDurRowCap = %d; test needs 0 < cap < %d activations to exercise the bound", rowCap, w.Len())
	}
	for _, a := range w.Activations() {
		vm := fleet.VMs[a.Index%nv]
		want := env.estimateExec(a, vm)
		if got := env.EstimateExec(a, vm); got != want {
			t.Fatalf("EstimateExec(%s, vm%d) = %v, want %v", a.ID, vm.ID, got, want)
		}
	}
	if env.baseDurRows != rowCap {
		t.Fatalf("memo holds %d rows after touching every activation, want exactly the cap %d", env.baseDurRows, rowCap)
	}
	if cells := env.baseDurRows * nv; cells > maxBaseDurCells {
		t.Fatalf("memo holds %d cells, over the %d cap", cells, maxBaseDurCells)
	}
	// Rows past the cap stay unmaterialised but keep answering exactly.
	last := w.Activations()[w.Len()-1]
	if env.baseDur[last.Index] != nil {
		t.Fatalf("activation %d materialised a row past the cap", last.Index)
	}
	for _, vm := range []*cloud.VM{fleet.VMs[0], fleet.VMs[nv-1]} {
		if got, want := env.EstimateExec(last, vm), env.estimateExec(last, vm); got != want {
			t.Fatalf("uncached EstimateExec(%s, vm%d) = %v, want %v", last.ID, vm.ID, got, want)
		}
	}
}
