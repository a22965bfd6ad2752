package sim

import (
	"math"
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/trace"
)

// wideWorkflow builds n independent equal tasks.
func wideWorkflow(n int, rt float64) *dag.Workflow {
	w := dag.New("wide")
	for i := 0; i < n; i++ {
		w.MustAdd(string(rune('a'+i%26))+string(rune('0'+i/26)), "x", rt)
	}
	return w
}

func TestAutoscaleGrowsUnderBacklog(t *testing.T) {
	// 16 × 100s tasks on 1 initial slot: without elasticity that is
	// 1600s. With scale-out to 4 VMs it must be far faster.
	w := wideWorkflow(16, 100)
	fleet := cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})

	base, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.Makespan-1600) > 1e-9 {
		t.Fatalf("static makespan = %v, want 1600", base.Makespan)
	}

	scaled, err := Run(w, fleet, &greedyFirst{}, Config{
		Autoscale: &Autoscale{
			Type:      cloud.T2Micro,
			MaxVMs:    4,
			BootDelay: 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Elasticity == nil {
		t.Fatal("no elasticity report")
	}
	if scaled.Elasticity.Acquired != 3 {
		t.Fatalf("acquired %d VMs, want 3", scaled.Elasticity.Acquired)
	}
	if scaled.Makespan >= base.Makespan/2 {
		t.Fatalf("scaled makespan %v not clearly below static %v", scaled.Makespan, base.Makespan)
	}
	if scaled.Elasticity.PeakVMs != 4 {
		t.Fatalf("peak VMs = %d, want 4", scaled.Elasticity.PeakVMs)
	}
	// Acquired VMs cost money.
	if scaled.Cost <= fleet.Cost(scaled.Makespan) {
		t.Fatalf("cost %v does not include acquired VMs (fleet alone %v)",
			scaled.Cost, fleet.Cost(scaled.Makespan))
	}
}

func TestAutoscaleRespectsMax(t *testing.T) {
	w := wideWorkflow(30, 50)
	fleet := cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	res, err := Run(w, fleet, &greedyFirst{}, Config{
		Autoscale: &Autoscale{Type: cloud.T2Micro, MaxVMs: 3, BootDelay: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elasticity.Acquired != 2 {
		t.Fatalf("acquired %d, want 2 (max 3 total)", res.Elasticity.Acquired)
	}
}

func TestAutoscaleReleasesIdleVMs(t *testing.T) {
	// A wide burst followed by a long serial tail: acquired VMs go
	// idle during the tail and must be released.
	w := dag.New("burst")
	prev := ""
	for i := 0; i < 4; i++ {
		id := "tail" + string(rune('0'+i))
		w.MustAdd(id, "tail", 100)
		if prev != "" {
			w.MustDep(prev, id)
		}
		prev = id
	}
	for i := 0; i < 8; i++ {
		id := string(rune('a' + i))
		w.MustAdd(id, "burst", 50)
		w.MustDep(id, "tail0")
	}
	fleet := cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	res, err := Run(w, fleet, &greedyFirst{}, Config{
		Autoscale: &Autoscale{
			Type:        cloud.T2Micro,
			MaxVMs:      4,
			BootDelay:   5,
			IdleTimeout: 30,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elasticity.Acquired == 0 {
		t.Fatal("no VMs acquired during the burst")
	}
	if res.Elasticity.Released == 0 {
		t.Fatal("idle acquired VMs not released during the tail")
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
}

func TestAutoscalePinnedFleetNeverReleased(t *testing.T) {
	// Even with an aggressive idle timeout, the initial fleet stays.
	w := chain(10, 10, 10)
	fleet := cloud.MustFleet("two", []cloud.VMType{cloud.T2Micro}, []int{2})
	res, err := Run(w, fleet, &greedyFirst{}, Config{
		Autoscale: &Autoscale{Type: cloud.T2Micro, MaxVMs: 2, IdleTimeout: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// vm1 idles the whole chain but is pinned.
	if res.Elasticity.Released != 0 {
		t.Fatalf("released %d pinned VMs", res.Elasticity.Released)
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
}

func TestAutoscaleValidation(t *testing.T) {
	w := chain(1)
	fleet := cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	bad := []*Autoscale{
		{MaxVMs: -1},
		{MaxVMs: 2, BootDelay: -1, Type: cloud.T2Micro},
		{MaxVMs: 2, Type: cloud.VMType{Name: "broken", VCPUs: 0}},
	}
	for i, a := range bad {
		if _, err := Run(w, fleet, &greedyFirst{}, Config{Autoscale: a}); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
	// MaxVMs 0 disables scale-out but is valid.
	res, err := Run(w, fleet, &greedyFirst{}, Config{Autoscale: &Autoscale{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elasticity.Acquired != 0 {
		t.Fatal("disabled policy acquired VMs")
	}
}

// TestAutoscaleBootDelayShiftsStart: a VM the autoscaler acquires takes
// no work until its boot delay has passed, so the activation waiting
// for it queues for exactly that long.
func TestAutoscaleBootDelayShiftsStart(t *testing.T) {
	w := dag.New("pair")
	w.MustAdd("a", "x", 100)
	w.MustAdd("b", "x", 100)
	fleet := cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	res, err := Run(w, fleet, &greedyFirst{}, Config{
		Autoscale: &Autoscale{Type: cloud.T2Micro, MaxVMs: 2, BootDelay: 30, QueuePerFreeSlot: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elasticity.Acquired != 1 {
		t.Fatalf("acquired %d VMs, want 1", res.Elasticity.Acquired)
	}
	// Boot 30 s, then 100 s on the acquired VM.
	if math.Abs(res.Makespan-130) > 1e-9 {
		t.Fatalf("makespan = %v, want 130", res.Makespan)
	}
	for _, r := range res.Records {
		if r.VMID == 1 && (r.StartAt != 30 || r.QueueTime() != 30) {
			t.Fatalf("%s started at %v after queueing %v on the acquired VM, want 30 and 30", r.TaskID, r.StartAt, r.QueueTime())
		}
	}
}

func TestAutoscaleDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := trace.Montage50(rng)
	fleet := cloud.MustFleet("two", []cloud.VMType{cloud.T2Micro}, []int{2})
	run := func() *Result {
		fl := cloud.DefaultFluctuation()
		res, err := Run(w, fleet, &greedyFirst{}, Config{
			Seed: 5, Fluct: &fl,
			Autoscale: &Autoscale{Type: cloud.T2Large, MaxVMs: 6, BootDelay: 20, IdleTimeout: 60, Cooldown: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Elasticity.Acquired != b.Elasticity.Acquired {
		t.Fatalf("autoscale not deterministic: %v/%d vs %v/%d",
			a.Makespan, a.Elasticity.Acquired, b.Makespan, b.Elasticity.Acquired)
	}
	if a.Elasticity.Acquired == 0 {
		t.Fatal("expected scale-out on the montage burst")
	}
}

// TestAutoscaleGappedFleetIDs is the regression test for acquired-VM
// ID allocation: allocating len(g.vms) collides with hand-built
// fleets whose IDs have gaps (here {0, 2} — the old code would hand
// an acquired VM the existing ID 2 and silently merge two VMs'
// Result.PerVM stats). IDs must continue from the fleet maximum.
func TestAutoscaleGappedFleetIDs(t *testing.T) {
	fleet := &cloud.Fleet{Name: "gapped", VMs: []*cloud.VM{
		{ID: 0, Type: cloud.T2Micro},
		{ID: 2, Type: cloud.T2Micro},
	}}
	w := wideWorkflow(16, 100)
	res, err := Run(w, fleet, &greedyFirst{}, Config{
		Autoscale: &Autoscale{Type: cloud.T2Micro, MaxVMs: 4, BootDelay: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elasticity.Acquired != 2 {
		t.Fatalf("acquired %d VMs, want 2", res.Elasticity.Acquired)
	}
	want := map[int]bool{0: true, 2: true, 3: true, 4: true}
	if len(res.PerVM) != len(want) {
		t.Fatalf("PerVM has %d entries (%v), want 4 distinct VMs", len(res.PerVM), res.PerVM)
	}
	for id := range res.PerVM {
		if !want[id] {
			t.Fatalf("unexpected VM ID %d in PerVM (want IDs 0,2 and fresh 3,4)", id)
		}
	}
}

// TestAutoscalePinsInitialFleetWithHighIDs is the regression test for
// scale-in pinning: the old code treated any VM with ID ≥ initial
// fleet size as acquired, so a hand-built fleet with IDs {5, 7} had
// its *initial* VMs retired for idleness. Pinning must track
// acquired-ness, not ID ranges.
func TestAutoscalePinsInitialFleetWithHighIDs(t *testing.T) {
	fleet := &cloud.Fleet{Name: "high-ids", VMs: []*cloud.VM{
		{ID: 5, Type: cloud.T2Micro},
		{ID: 7, Type: cloud.T2Micro},
	}}
	// A serial chain keeps one VM busy while the other idles far past
	// the timeout — it must survive anyway.
	w := chain(10, 10, 10, 10)
	res, err := Run(w, fleet, &greedyFirst{}, Config{
		Autoscale: &Autoscale{IdleTimeout: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	if res.Elasticity.Released != 0 {
		t.Fatalf("released %d initial-fleet VMs; the initial fleet is pinned", res.Elasticity.Released)
	}
}

// TestSpotRevokedVMFreesAutoscaleCapacity is the regression test for
// the spot×autoscale interaction: a revoked VM used to keep counting
// against MaxVMs forever, so a 2-VM-cap fleet that lost a VM to a
// revocation could never scale back out. The corpse must free its
// capacity slot and the scaler must acquire a replacement.
func TestSpotRevokedVMFreesAutoscaleCapacity(t *testing.T) {
	fleet := cloud.MustFleet("pair", []cloud.VMType{cloud.T2Micro}, []int{2})
	w := wideWorkflow(20, 100)
	run := func(seed int64) *Result {
		res, err := Run(w, fleet, &greedyFirst{}, Config{
			Seed: seed,
			Spot: &SpotPolicy{MeanLifetime: 150, KeepOne: true},
			// The cap equals the initial fleet size: scale-out is only
			// possible at all once a corpse stops occupying capacity.
			Autoscale: &Autoscale{Type: cloud.T2Micro, MaxVMs: 2,
				BootDelay: 1, QueuePerFreeSlot: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Probe seeds for a revocation landing mid-run with backlog left.
	var res *Result
	for seed := int64(1); seed <= 20; seed++ {
		if r := run(seed); r.Revocations >= 1 && r.Elasticity != nil {
			res = r
			break
		}
	}
	if res == nil {
		t.Fatal("no probed seed produced a mid-run revocation; retune the scenario")
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	if res.Elasticity.Acquired < 1 {
		t.Fatalf("acquired %d VMs after the revocation, want ≥1 (corpse still occupies capacity?)",
			res.Elasticity.Acquired)
	}
	// The replacement VM (fresh ID ≥ 2) must actually have done work.
	worked := false
	for id := range res.PerVM {
		if id >= 2 {
			worked = true
		}
	}
	if !worked {
		t.Fatalf("no record on any replacement VM: %v", res.PerVM)
	}
}

// bootedAudit checks at every engine transition that the engine's
// booted-VM and idle-VM counters equal a scan of its VMs, and that its
// ready list is in (ReadyAt, Index) order.
type bootedAudit struct {
	t *testing.T
	g **Engine
}

func (a bootedAudit) RunStart(*Env) RunHook { return a }

func (a bootedAudit) check(now float64, at string) {
	g := *a.g
	n, idle := 0, 0
	for _, v := range g.vms {
		if v.booted {
			n++
		}
		if v.Idle() {
			idle++
		}
	}
	if g.nBooted != n {
		a.t.Fatalf("t=%v, %s: nBooted = %d, scan counts %d booted VMs", now, at, g.nBooted, n)
	}
	if g.nIdle != idle {
		a.t.Fatalf("t=%v, %s: nIdle = %d, scan counts %d idle VMs", now, at, g.nIdle, idle)
	}
	for i := 1; i < len(g.ready); i++ {
		p, q := g.ready[i-1], g.ready[i]
		if p.ReadyAt > q.ReadyAt || p.ReadyAt == q.ReadyAt && p.Act.Index >= q.Act.Index {
			a.t.Fatalf("t=%v, %s: ready[%d] = task %d ready at %v, before task %d ready at %v",
				now, at, i-1, p.Act.Index, p.ReadyAt, q.Act.Index, q.ReadyAt)
		}
	}
}

func (a bootedAudit) Decision(now float64, _ *Context)            { a.check(now, "decision") }
func (a bootedAudit) TaskReady(now float64, _ *Task)              { a.check(now, "task ready") }
func (a bootedAudit) TaskStart(now float64, _ *Task, _ *VMState)  { a.check(now, "task start") }
func (a bootedAudit) TaskFinish(now float64, _ *Task, _ *VMState) { a.check(now, "task finish") }
func (a bootedAudit) TaskAbort(now float64, _ *Task, _ *VMState)  { a.check(now, "task abort") }
func (a bootedAudit) VMAdded(now float64, _ *VMState)             { a.check(now, "vm added") }
func (a bootedAudit) VMRetired(now float64, _ *VMState)           { a.check(now, "vm retired") }
func (a bootedAudit) VMRevoked(now float64, _ *VMState)           { a.check(now, "vm revoked") }
func (a bootedAudit) RunEnd(res *Result)                          { a.check(res.Makespan, "run end") }

// TestBootedCounterMatchesScan: the booted-VM counter the peak-VMs
// report reads, and the idle-VM counter behind the workflow state,
// stay equal to a scan of the VMs, and the ready list stays in
// (ReadyAt, Index) order, through autoscaler acquisitions, boots (with
// a boot delay that varies by seed) and retirements, and spot
// revocations that requeue running tasks — on fresh runs and on Reset
// ones.
func TestBootedCounterMatchesScan(t *testing.T) {
	fleet := cloud.MustFleet("pair", []cloud.VMType{cloud.T2Micro}, []int{2})
	var revoked, acquired, released int
	for seed := int64(1); seed <= 10; seed++ {
		var g *Engine
		cfg := Config{
			Seed: seed,
			Spot: &SpotPolicy{MeanLifetime: 200, KeepOne: true},
			Autoscale: &Autoscale{Type: cloud.T2Micro, MaxVMs: 6, BootDelay: 2 + float64(seed%4),
				IdleTimeout: 3, QueuePerFreeSlot: 1},
			Hook: bootedAudit{t, &g},
		}
		w := trace.Montage50(rand.New(rand.NewSource(seed)))
		var err error
		if g, err = NewEngine(w, fleet, &greedyFirst{}, cfg); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			if run > 0 {
				if err := g.Reset(cfg); err != nil {
					t.Fatal(err)
				}
			}
			res, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			revoked += res.Revocations
			acquired += res.Elasticity.Acquired
			released += res.Elasticity.Released
		}
	}
	if revoked == 0 || acquired == 0 || released == 0 {
		t.Fatalf("revocations %d, acquisitions %d, retirements %d: the scenario should exercise all three",
			revoked, acquired, released)
	}
}
