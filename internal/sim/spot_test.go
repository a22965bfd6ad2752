package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/trace"
)

func TestSpotValidation(t *testing.T) {
	w := chain(1)
	fleet := singleVMFleet()
	if _, err := Run(w, fleet, &greedyFirst{}, Config{Spot: &SpotPolicy{}}); err == nil {
		t.Fatal("zero MeanLifetime accepted")
	}
}

func TestSpotRevocationRequeuesWork(t *testing.T) {
	// Two VMs, aggressive revocation on all but one (KeepOne): the
	// workflow must still finish, with revocations observed and
	// aborted attempts recorded.
	rng := rand.New(rand.NewSource(3))
	w := trace.Montage50(rng)
	fleet := cloud.MustFleet("two", []cloud.VMType{cloud.T2Large}, []int{2})
	res, err := Run(w, fleet, &greedyFirst{}, Config{
		Seed: 3,
		Spot: &SpotPolicy{MeanLifetime: 200, KeepOne: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	if res.Revocations != 1 {
		t.Fatalf("revocations = %d, want 1 (one eligible VM)", res.Revocations)
	}
	// Every activation still succeeded exactly once.
	if err := res.Verify(w, fleet); err != nil {
		t.Fatal(err)
	}
	// Aborted attempts appear as unsuccessful records.
	aborted := 0
	for _, r := range res.Records {
		if !r.Success {
			aborted++
		}
	}
	if aborted == 0 {
		t.Log("revocation hit an idle moment; no aborted attempts (acceptable)")
	}
}

func TestSpotKeepOneGuaranteesCompletion(t *testing.T) {
	// All VMs spot with tiny lifetimes: KeepOne must still finish the
	// workflow on the protected VM.
	rng := rand.New(rand.NewSource(4))
	w := trace.Montage(rng, 4, 2)
	fleet := cloud.MustFleet("four", []cloud.VMType{cloud.T2Large}, []int{4})
	res, err := Run(w, fleet, &greedyFirst{}, Config{
		Seed: 4,
		Spot: &SpotPolicy{MeanLifetime: 10, KeepOne: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	if res.Revocations != 3 {
		t.Fatalf("revocations = %d, want 3", res.Revocations)
	}
}

func TestSpotEligibleTypeOnly(t *testing.T) {
	// Only micro instances are spot; the 2xlarge must survive.
	rng := rand.New(rand.NewSource(5))
	w := trace.Montage(rng, 5, 2)
	fleet, _ := cloud.FleetTable1(16)
	res, err := Run(w, fleet, &greedyFirst{}, Config{
		Seed: 5,
		Spot: &SpotPolicy{MeanLifetime: 50, EligibleType: "t2.micro"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	if res.Revocations == 0 {
		t.Fatal("no micro revoked despite tiny lifetime")
	}
	// Post-revocation work lands on the surviving 2xlarge (ID 8):
	// later successful records cluster there.
	lastOnBig := false
	var lastFinish float64
	var lastVM int
	for _, r := range res.Records {
		if r.Success && r.FinishAt > lastFinish {
			lastFinish = r.FinishAt
			lastVM = r.VMID
		}
	}
	lastOnBig = lastVM == 8
	if !lastOnBig {
		t.Logf("last task ran on vm%d (2xlarge not required but typical)", lastVM)
	}
}

func TestSpotRevocationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := trace.Montage(rng, 6, 3)
	fleet := cloud.MustFleet("three", []cloud.VMType{cloud.T2Large}, []int{3})
	run := func() *Result {
		res, err := Run(w, fleet, &greedyFirst{}, Config{
			Seed: 6,
			Spot: &SpotPolicy{MeanLifetime: 150, KeepOne: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Revocations != b.Revocations || len(a.Records) != len(b.Records) {
		t.Fatal("spot runs not deterministic")
	}
}

// Property: under KeepOne spot churn, dynamic scheduling always
// completes every activation exactly once (successfully).
func TestPropertySpotAlwaysCompletes(t *testing.T) {
	f := func(seed int64, lifeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := trace.MontageN(rng, 25)
		fleet := cloud.MustFleet("pool", []cloud.VMType{cloud.T2Large}, []int{3})
		life := float64(int(lifeRaw)%400) + 20
		res, err := Run(w, fleet, &greedyFirst{}, Config{
			Seed: seed,
			Spot: &SpotPolicy{MeanLifetime: life, KeepOne: true},
		})
		if err != nil {
			return false
		}
		if res.State != FinishedOK {
			return false
		}
		return res.Verify(w, fleet) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSpotRevokeMultiVCPUTraceStable is the regression test for the
// revoke-ordering fix: aborting g.running in map-iteration order
// emitted the failure records of a multi-vCPU revocation in an order
// that varied between runs, breaking the byte-stable-trace contract.
// The test finds a seed whose revocation kills at least two tasks at
// the same instant, then demands bit-identical traces across many
// repeats (pre-fix, map order made these diverge within a handful of
// runs).
func TestSpotRevokeMultiVCPUTraceStable(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(8)))
	fleet := cloud.MustFleet("spot2x", []cloud.VMType{cloud.T22XLarge}, []int{2})
	run := func(seed int64) *Result {
		res, err := Run(w, fleet, &greedyFirst{}, Config{
			Seed: seed,
			Spot: &SpotPolicy{MeanLifetime: 250, KeepOne: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Probe seeds until a revocation aborts ≥2 concurrent tasks on
	// the 8-slot VM — the only case where abort order matters.
	var first *Result
	var seed int64
	for seed = 1; seed <= 40; seed++ {
		res := run(seed)
		byTime := make(map[float64]int)
		for _, r := range res.Records {
			if !r.Success {
				byTime[r.FinishAt]++
			}
		}
		for _, n := range byTime {
			if n >= 2 {
				first = res
				break
			}
		}
		if first != nil {
			break
		}
	}
	if first == nil {
		t.Fatal("no probed seed produced a multi-task revocation; retune the scenario")
	}
	for i := 0; i < 24; i++ {
		requireEqualRuns(t, first, run(seed))
	}
}

// orderHook records the activation indices of task starts and spot
// aborts, in the order the engine reports them.
type orderHook struct {
	starts, aborts []int
}

func (h *orderHook) RunStart(*Env) RunHook      { return h }
func (h *orderHook) Decision(float64, *Context) {}
func (h *orderHook) TaskReady(float64, *Task)   {}
func (h *orderHook) TaskStart(_ float64, t *Task, _ *VMState) {
	h.starts = append(h.starts, t.Act.Index)
}
func (h *orderHook) TaskFinish(float64, *Task, *VMState) {}
func (h *orderHook) TaskAbort(_ float64, t *Task, _ *VMState) {
	h.aborts = append(h.aborts, t.Act.Index)
}
func (h *orderHook) VMAdded(float64, *VMState)   {}
func (h *orderHook) VMRetired(float64, *VMState) {}
func (h *orderHook) VMRevoked(float64, *VMState) {}
func (h *orderHook) RunEnd(*Result)              {}

// reverseFirst assigns the ready tasks to the first idle VM with free
// slots in descending activation index, so a multi-slot VM holds
// tasks started out of index order.
type reverseFirst struct{}

func (reverseFirst) Name() string                                    { return "reverse-first" }
func (reverseFirst) Prepare(*dag.Workflow, *cloud.Fleet, *Env) error { return nil }

func (reverseFirst) Pick(ctx *Context) []Assignment {
	var out []Assignment
	for _, v := range ctx.IdleVMs {
		free := v.FreeSlots()
		for i := len(ctx.Ready) - 1; i >= 0 && free > 0; i-- {
			out = append(out, Assignment{Task: ctx.Ready[i], VM: v})
			free--
		}
		break
	}
	return out
}

// TestSpotRevokeAbortsInIndexOrder revokes an 8-slot VM while five
// independent activations, started in descending index order, run on
// it: the aborts, and so the failure records, must come out in
// ascending index order regardless of start order.
func TestSpotRevokeAbortsInIndexOrder(t *testing.T) {
	w := dag.New("fan")
	for i := 0; i < 5; i++ {
		w.MustAdd(string(rune('a'+i)), "work", 1000)
	}
	fleet := cloud.MustFleet("spot-big", []cloud.VMType{cloud.T22XLarge, cloud.T2Micro}, []int{1, 1})
	h := &orderHook{}
	res, err := Run(w, fleet, reverseFirst{}, Config{
		Seed: 1,
		Spot: &SpotPolicy{MeanLifetime: 1, EligibleType: cloud.T22XLarge.Name},
		Hook: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != FinishedOK || res.Revocations != 1 {
		t.Fatalf("state %v with %d revocations, want finished with 1", res.State, res.Revocations)
	}
	wantStarts := []int{4, 3, 2, 1, 0}
	if len(h.starts) < 5 || !slices.Equal(h.starts[:5], wantStarts) {
		t.Fatalf("first starts %v, want %v on the spot VM", h.starts, wantStarts)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(h.aborts, want) {
		t.Fatalf("aborts %v, want %v", h.aborts, want)
	}
	var failed []string
	for _, r := range res.Records {
		if !r.Success {
			failed = append(failed, r.TaskID)
		}
	}
	if want := []string{"a", "b", "c", "d", "e"}; !slices.Equal(failed, want) {
		t.Fatalf("failure records %v, want %v", failed, want)
	}
}
