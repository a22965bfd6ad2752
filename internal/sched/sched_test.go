package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

func fleet16(t testing.TB) *cloud.Fleet {
	f, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func montage(t testing.TB, seed int64) *dag.Workflow {
	rng := rand.New(rand.NewSource(seed))
	return trace.Montage50(rng)
}

// all returns one fresh instance of every scheduler under test.
func all() []sim.Scheduler {
	return []sim.Scheduler{
		&FCFS{},
		&RoundRobin{},
		&Random{Seed: 42},
		&MCT{},
		&MinMin{},
		&MaxMin{},
		&DataAware{},
		&HEFT{},
	}
}

func TestAllSchedulersFinishMontage(t *testing.T) {
	w := montage(t, 1)
	for _, s := range all() {
		res, err := sim.Run(w, fleet16(t), s, sim.Config{DataTransfer: true, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.State != sim.FinishedOK {
			t.Fatalf("%s: state = %v", s.Name(), res.State)
		}
		if len(res.Plan) != w.Len() {
			t.Fatalf("%s: plan covers %d of %d", s.Name(), len(res.Plan), w.Len())
		}
		_, cp, _ := w.CriticalPath()
		if res.Makespan < cp-1e-6 {
			t.Fatalf("%s: makespan %v beats critical path %v", s.Name(), res.Makespan, cp)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	want := map[string]bool{
		"FCFS": true, "RoundRobin": true, "Random": true, "MCT": true,
		"MinMin": true, "MaxMin": true, "DataAware": true, "HEFT": true,
	}
	for _, s := range all() {
		if !want[s.Name()] {
			t.Errorf("unexpected name %q", s.Name())
		}
		delete(want, s.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing schedulers: %v", want)
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	// 9 independent equal tasks on 9 single-slot VMs: each VM gets one.
	w := dag.New("spread")
	for i := 0; i < 9; i++ {
		w.MustAdd(string(rune('a'+i)), "x", 10)
	}
	fleet := cloud.MustFleet("nine", []cloud.VMType{cloud.T2Micro}, []int{9})
	res, err := sim.Run(w, fleet, &RoundRobin{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[int]int)
	for _, vm := range res.Plan {
		used[vm]++
	}
	if len(used) != 9 {
		t.Fatalf("round robin used %d VMs, want 9: %v", len(used), res.Plan)
	}
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Fatalf("makespan = %v, want 10", res.Makespan)
	}
}

func TestMCTPrefersFasterVM(t *testing.T) {
	// One task, a slow and a fast VM type: MCT must pick the faster.
	fast := cloud.VMType{Name: "fast", VCPUs: 1, RAMMB: 1024, Speed: 4, PricePerHour: 1, NetMBps: 100}
	slow := cloud.VMType{Name: "slow", VCPUs: 1, RAMMB: 1024, Speed: 1, PricePerHour: 1, NetMBps: 100}
	fleet := cloud.MustFleet("two", []cloud.VMType{slow, fast}, []int{1, 1})
	w := dag.New("one")
	w.MustAdd("t", "x", 8)
	res, err := sim.Run(w, fleet, &MCT{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan["t"] != 1 {
		t.Fatalf("MCT chose VM %d, want the fast VM 1", res.Plan["t"])
	}
	if math.Abs(res.Makespan-2) > 1e-9 {
		t.Fatalf("makespan = %v, want 2", res.Makespan)
	}
}

func TestMinMinOrdering(t *testing.T) {
	// Min-Min schedules the shortest task first; Max-Min the longest.
	// With one slot and tasks of 1s and 10s ready together, Min-Min
	// finishes the short one first.
	w := dag.New("mm")
	w.MustAdd("short", "x", 1)
	w.MustAdd("long", "x", 10)
	fleet := cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})

	res, err := sim.Run(w, fleet, &MinMin{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	finish := map[string]float64{}
	for _, r := range res.Records {
		finish[r.TaskID] = r.FinishAt
	}
	if finish["short"] > finish["long"] {
		t.Fatalf("MinMin ran long first: %v", finish)
	}

	res2, err := sim.Run(w, fleet, &MaxMin{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	finish2 := map[string]float64{}
	for _, r := range res2.Records {
		finish2[r.TaskID] = r.FinishAt
	}
	if finish2["long"] > finish2["short"] {
		t.Fatalf("MaxMin ran short first: %v", finish2)
	}
}

func TestDataAwarePrefersDataLocality(t *testing.T) {
	w := dag.New("locality")
	a := w.MustAdd("a", "produce", 5)
	b := w.MustAdd("b", "consume", 5)
	a.Outputs = []dag.File{{Name: "big", Size: 100_000_000}}
	b.Inputs = a.Outputs
	w.MustDep("a", "b")
	fleet := cloud.MustFleet("two", []cloud.VMType{cloud.T2Micro}, []int{2})
	res, err := sim.Run(w, fleet, &DataAware{}, sim.Config{DataTransfer: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan["a"] != res.Plan["b"] {
		t.Fatalf("DataAware split producer/consumer: %v", res.Plan)
	}
}

func TestPlanValidation(t *testing.T) {
	w := dag.New("w")
	w.MustAdd("a", "x", 1)
	fleet := fleet16(t)
	// Missing activation.
	p := &Plan{Assign: map[string]int{}}
	if _, err := sim.Run(w, fleet, p, sim.Config{}); err == nil {
		t.Fatal("incomplete plan accepted")
	}
	// Out-of-range VM.
	p2 := &Plan{Assign: map[string]int{"a": 99}}
	if _, err := sim.Run(w, fleet, p2, sim.Config{}); err == nil {
		t.Fatal("out-of-range VM accepted")
	}
	// Valid plan executes on the pinned VM.
	p3 := &Plan{Assign: map[string]int{"a": 3}}
	res, err := sim.Run(w, fleet, p3, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan["a"] != 3 {
		t.Fatalf("ran on VM %d, want 3", res.Plan["a"])
	}
	if p3.Name() != "Plan" {
		t.Fatalf("default plan name = %q", p3.Name())
	}
}

// mapPlanPick is Plan.Pick as it was before the slot budget: a
// VM→free-slots map and a VM-ID index built per decision, and the
// plan looked up by activation ID.
func mapPlanPick(assign map[string]int, ctx *sim.Context) []sim.Assignment {
	free := make(map[*sim.VMState]int, len(ctx.IdleVMs))
	byID := make(map[int]*sim.VMState, len(ctx.IdleVMs))
	for _, v := range ctx.IdleVMs {
		free[v] = v.FreeSlots()
		byID[v.VM.ID] = v
	}
	var out []sim.Assignment
	for _, t := range ctx.Ready {
		v, ok := byID[assign[t.Act.ID]]
		if !ok || free[v] == 0 {
			continue
		}
		free[v]--
		out = append(out, sim.Assignment{Task: t, VM: v})
	}
	return out
}

// TestPlanPickMatchesMap holds Plan.Pick to the map version over a
// run of random decisions on one Plan: random ready subsets in random
// order, and random idle subsets with random free slots. A budget left
// dirty by one decision shows in the next.
func TestPlanPickMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	w := trace.MontageN(rand.New(rand.NewSource(5)), 60)
	fleet := fleet16(t)
	assign := make(map[string]int, w.Len())
	for _, a := range w.Activations() {
		assign[a.ID] = rng.Intn(fleet.Len())
	}
	p := &Plan{Assign: assign}
	if err := p.Prepare(w, fleet, nil); err != nil {
		t.Fatal(err)
	}
	tasks := make([]*sim.Task, w.Len())
	for _, a := range w.Activations() {
		tasks[a.Index] = &sim.Task{Act: a, State: sim.Ready}
	}
	all := make([]*sim.VMState, fleet.Len())
	for round := 0; round < 2000; round++ {
		var idle []*sim.VMState
		for i, vm := range fleet.VMs {
			all[i] = &sim.VMState{VM: vm, Slots: 1 + rng.Intn(3)}
			if rng.Intn(3) > 0 {
				idle = append(idle, all[i])
			}
		}
		ready := make([]*sim.Task, 0, len(tasks))
		for _, i := range rng.Perm(len(tasks))[:rng.Intn(len(tasks)+1)] {
			ready = append(ready, tasks[i])
		}
		ctx := &sim.Context{Ready: ready, IdleVMs: idle, AllVMs: all}
		want := mapPlanPick(assign, ctx)
		got := p.Pick(ctx)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d assignments, map version %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d, assignment %d: %s on %v, map version %s on %v",
					round, i, got[i].Task.Act.ID, got[i].VM, want[i].Task.Act.ID, want[i].VM)
			}
		}
	}
}

func TestHEFTPlanRespectedAndReasonable(t *testing.T) {
	w := montage(t, 2)
	fleet := fleet16(t)
	h := &HEFT{}
	res, err := sim.Run(w, fleet, h, sim.Config{DataTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	// The executed placement must match the plan exactly.
	for id, vm := range h.Assign() {
		if res.Plan[id] != vm {
			t.Fatalf("activation %s ran on %d, planned %d", id, res.Plan[id], vm)
		}
	}
	if h.PlannedMakespan <= 0 {
		t.Fatalf("planned makespan = %v", h.PlannedMakespan)
	}
	// Replaying a static plan can only lose to the idealised plan by
	// dispatch granularity; allow slack but catch gross divergence.
	if res.Makespan > h.PlannedMakespan*2 {
		t.Fatalf("simulated makespan %v far above planned %v", res.Makespan, h.PlannedMakespan)
	}
}

func TestHEFTBeatsRandomOnHeterogeneousFleet(t *testing.T) {
	// With strongly heterogeneous speeds HEFT should clearly beat the
	// random scheduler on average.
	fast := cloud.VMType{Name: "fast", VCPUs: 2, RAMMB: 4096, Speed: 4, PricePerHour: 1, NetMBps: 100}
	slow := cloud.VMType{Name: "slow", VCPUs: 1, RAMMB: 1024, Speed: 0.5, PricePerHour: 1, NetMBps: 100}
	fleet := cloud.MustFleet("hetero", []cloud.VMType{slow, fast}, []int{4, 1})
	w := montage(t, 3)

	hres, err := sim.Run(w, fleet, &HEFT{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var randTotal float64
	const n = 5
	for i := int64(0); i < n; i++ {
		rres, err := sim.Run(w, fleet, &Random{Seed: i}, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		randTotal += rres.Makespan
	}
	if hres.Makespan >= randTotal/n {
		t.Fatalf("HEFT %v not better than mean random %v", hres.Makespan, randTotal/n)
	}
}

func TestHEFTChainUsesFastProcessor(t *testing.T) {
	fast := cloud.VMType{Name: "fast", VCPUs: 1, RAMMB: 1024, Speed: 2, PricePerHour: 1, NetMBps: 100}
	slow := cloud.VMType{Name: "slow", VCPUs: 1, RAMMB: 1024, Speed: 1, PricePerHour: 1, NetMBps: 100}
	fleet := cloud.MustFleet("two", []cloud.VMType{slow, fast}, []int{1, 1})
	w := dag.New("chain")
	w.MustAdd("a", "x", 10)
	w.MustAdd("b", "x", 10)
	w.MustDep("a", "b")
	h := &HEFT{}
	res, err := sim.Run(w, fleet, h, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Both tasks belong on the 2x VM: 5+5 = 10 < 10+10.
	if res.Plan["a"] != 1 || res.Plan["b"] != 1 {
		t.Fatalf("plan = %v, want both on VM 1", res.Plan)
	}
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Fatalf("makespan = %v, want 10", res.Makespan)
	}
}

func TestHEFTInsertionPolicy(t *testing.T) {
	// earliestSlot must find gaps between busy intervals.
	p := &processor{}
	p.insert(interval{0, 10})
	p.insert(interval{20, 30})
	if got := p.earliestSlot(0, 5); got != 10 {
		t.Fatalf("gap start = %v, want 10", got)
	}
	if got := p.earliestSlot(0, 15); got != 30 {
		t.Fatalf("no-fit start = %v, want 30", got)
	}
	if got := p.earliestSlot(25, 2); got != 30 {
		t.Fatalf("ready-inside-busy start = %v, want 30", got)
	}
	p.insert(interval{12, 14})
	if got := p.earliestSlot(0, 2); got != 10 {
		t.Fatalf("small gap start = %v, want 10", got)
	}
}

func TestSharedBytes(t *testing.T) {
	a := &dag.Activation{Outputs: []dag.File{{Name: "x", Size: 10}, {Name: "y", Size: 5}}}
	b := &dag.Activation{Inputs: []dag.File{{Name: "x", Size: 10}, {Name: "z", Size: 99}}}
	if got := sharedBytes(a, b); got != 10 {
		t.Fatalf("sharedBytes = %d, want 10", got)
	}
}

func TestRandomReproducible(t *testing.T) {
	w := montage(t, 4)
	fleet := fleet16(t)
	r1, err := sim.Run(w, fleet, &Random{Seed: 5}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Run(w, fleet, &Random{Seed: 5}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("same seed, different makespans: %v vs %v", r1.Makespan, r2.Makespan)
	}
	r3, err := sim.Run(w, fleet, &Random{Seed: 6}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan == r3.Makespan {
		t.Log("different seeds coincided (unlikely but possible)")
	}
}

// Property: every scheduler, on every family and fleet, produces a
// complete valid schedule with the makespan bounded below by the
// critical path.
func TestPropertyAllSchedulersValid(t *testing.T) {
	fams := trace.Families()
	f := func(seed int64, famIdx, vcpuIdx uint8) bool {
		fam := fams[int(famIdx)%len(fams)]
		vcpus := cloud.Table1VCPUs()[int(vcpuIdx)%3]
		rng := rand.New(rand.NewSource(seed))
		w := trace.Named(fam)(rng, 40)
		fleet, err := cloud.FleetTable1(vcpus)
		if err != nil {
			return false
		}
		_, cp, err := w.CriticalPath()
		if err != nil {
			return false
		}
		for _, s := range all() {
			res, err := sim.Run(w, fleet, s, sim.Config{Seed: seed, DataTransfer: true})
			if err != nil {
				return false
			}
			if res.State != sim.FinishedOK || len(res.Plan) != w.Len() {
				return false
			}
			if res.Makespan < cp-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHEFTPlanMontage50(b *testing.B) {
	w := montage(b, 1)
	fleet, _ := cloud.FleetTable1(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := &HEFT{}
		if err := h.Prepare(w, fleet, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinMinMontage50(b *testing.B) {
	w := montage(b, 1)
	fleet, _ := cloud.FleetTable1(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, fleet, &MinMin{}, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCheapFirstPrefersCheapSlots(t *testing.T) {
	w := dag.New("cheap")
	w.MustAdd("a", "x", 10)
	fleet := fleet16(t) // micro slot-price < 2xlarge slot-price
	res, err := sim.Run(w, fleet, &CheapFirst{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.VMs[res.Plan["a"]].Type.Name != "t2.micro" {
		t.Fatalf("CheapFirst chose %v", fleet.VMs[res.Plan["a"]].Type.Name)
	}
	if (&CheapFirst{}).Name() != "CheapFirst" {
		t.Fatal("bad name")
	}
}

func TestCheapFirstLowersBusyCost(t *testing.T) {
	// A chain never overflows the cheap slots, so CheapFirst keeps all
	// work on micro instances: busy cost sits below an
	// everything-on-2xlarge plan by the slot-price ratio
	// (0.0116/1 vs 0.3712/8 per slot-hour).
	w := dag.New("chain")
	w.MustAdd("a", "x", 100)
	w.MustAdd("b", "x", 100)
	w.MustDep("a", "b")
	fleet := fleet16(t)
	cheap, err := sim.Run(w, fleet, &CheapFirst{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := sim.Run(w, fleet, &Plan{PlanName: "big", Assign: map[string]int{"a": 8, "b": 8}}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantRatio := (cloud.T22XLarge.PricePerHour / 8) / cloud.T2Micro.PricePerHour
	if math.Abs(big.BusyCost/cheap.BusyCost-wantRatio) > 1e-9 {
		t.Fatalf("busy-cost ratio = %v, want %v", big.BusyCost/cheap.BusyCost, wantRatio)
	}
	if cheap.BusyCost >= big.BusyCost {
		t.Fatalf("CheapFirst busy cost %v not below all-big plan %v", cheap.BusyCost, big.BusyCost)
	}
}

func TestEnsembleScheduling(t *testing.T) {
	// Two Montage instances merged into one ensemble scheduled on a
	// shared fleet: both must finish, and the ensemble makespan must
	// be bounded by the two sequential makespans.
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(8))
	a := trace.Montage(rngA, 5, 2)
	b := trace.Montage(rngB, 5, 2)
	ens, err := dag.Merge("ensemble", a, b)
	if err != nil {
		t.Fatal(err)
	}
	fleet := fleet16(t)
	mk := func(w *dag.Workflow) float64 {
		res, err := sim.Run(w, fleet, &MinMin{}, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.State != sim.FinishedOK {
			t.Fatalf("state = %v", res.State)
		}
		return res.Makespan
	}
	mkA, mkB, mkEns := mk(a), mk(b), mk(ens)
	if mkEns > mkA+mkB+1e-9 {
		t.Fatalf("ensemble %v worse than sequential %v", mkEns, mkA+mkB)
	}
	if mkEns < mkA-1e-9 || mkEns < mkB-1e-9 {
		t.Fatalf("ensemble %v beat a single member (%v, %v)", mkEns, mkA, mkB)
	}
}

// multiSiteFleet builds a two-site fleet with a slow inter-site link.
func multiSiteFleet(t testing.TB) *cloud.Fleet {
	topo := cloud.NewTopology(1, "east", "west") // 1 MB/s across sites
	f, err := cloud.NewMultiSiteFleet("ms", topo, []cloud.SiteSpec{
		{Site: "east", Types: []cloud.VMType{cloud.T2Large}, Counts: []int{2}},
		{Site: "west", Types: []cloud.VMType{cloud.T2Large}, Counts: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCrossSiteTransferSlower(t *testing.T) {
	// a produces 64 MB consumed by b. Same site: staged at the VM's
	// 64 MB/s (1s). Cross site: limited to 1 MB/s (64s).
	w := dag.New("xsite")
	a := w.MustAdd("a", "produce", 10)
	b := w.MustAdd("b", "consume", 10)
	a.Outputs = []dag.File{{Name: "big", Size: 64_000_000}}
	b.Inputs = a.Outputs
	w.MustDep("a", "b")
	fleet := multiSiteFleet(t)

	sameSite, err := sim.Run(w, fleet, &Plan{PlanName: "same", Assign: map[string]int{"a": 0, "b": 1}},
		sim.Config{DataTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	crossSite, err := sim.Run(w, fleet, &Plan{PlanName: "cross", Assign: map[string]int{"a": 0, "b": 2}},
		sim.Config{DataTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sameSite.Makespan-21) > 1e-9 {
		t.Fatalf("same-site makespan = %v, want 21", sameSite.Makespan)
	}
	if math.Abs(crossSite.Makespan-84) > 1e-9 {
		t.Fatalf("cross-site makespan = %v, want 84 (64s link transfer)", crossSite.Makespan)
	}
}

func TestSiteAwareKeepsDataLocal(t *testing.T) {
	// A producer in each site, consumers needing the producer's data:
	// SiteAware must co-locate consumers with their producer's site.
	w := dag.New("local")
	p1 := w.MustAdd("p1", "produce", 5)
	p1.Outputs = []dag.File{{Name: "d1", Size: 50_000_000}}
	for i := 0; i < 2; i++ {
		c := w.MustAdd(fmt.Sprintf("c%d", i), "consume", 5)
		c.Inputs = p1.Outputs
		w.MustDep("p1", c.ID)
	}
	fleet := multiSiteFleet(t)
	res, err := sim.Run(w, fleet, &SiteAware{}, sim.Config{DataTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	producerSite := fleet.VMs[res.Plan["p1"]].Site
	for _, id := range []string{"c0", "c1"} {
		if fleet.VMs[res.Plan[id]].Site != producerSite {
			t.Fatalf("%s scheduled off-site: %v", id, res.Plan)
		}
	}
	if (&SiteAware{}).Name() != "SiteAware" {
		t.Fatal("bad name")
	}
}

func TestSiteAwareBeatsSiteBlindOnChains(t *testing.T) {
	// Chains with large intermediates across a slow link: SiteAware
	// should clearly beat site-blind random placement.
	w := dag.New("chains")
	for c := 0; c < 4; c++ {
		prev := ""
		for s := 0; s < 4; s++ {
			id := fmt.Sprintf("c%d_s%d", c, s)
			a := w.MustAdd(id, "step", 5)
			a.Outputs = []dag.File{{Name: id + ".out", Size: 20_000_000}}
			if prev != "" {
				a.Inputs = w.Get(prev).Outputs
				w.MustDep(prev, id)
			}
			prev = id
		}
	}
	fleet := multiSiteFleet(t)
	aware, err := sim.Run(w, fleet, &SiteAware{}, sim.Config{DataTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	// Site-blind baseline: random placement ping-pongs intermediates
	// across the slow link (RoundRobin would accidentally realign
	// children with their parents' VMs on this regular shape).
	var blindSum float64
	const n = 5
	for i := int64(0); i < n; i++ {
		blind, err := sim.Run(w, fleet, &Random{Seed: i}, sim.Config{DataTransfer: true})
		if err != nil {
			t.Fatal(err)
		}
		blindSum += blind.Makespan
	}
	if aware.Makespan >= blindSum/n {
		t.Fatalf("SiteAware %v not better than mean random %v", aware.Makespan, blindSum/n)
	}
}

func TestGAProducesValidCompetitivePlan(t *testing.T) {
	// Heterogeneous speeds so placement actually matters (on the t2
	// fleet all nominal speeds are equal and any plan is near the
	// critical path).
	fast := cloud.VMType{Name: "fast", VCPUs: 2, RAMMB: 4096, Speed: 4, PricePerHour: 1, NetMBps: 100}
	slow := cloud.VMType{Name: "slow", VCPUs: 1, RAMMB: 1024, Speed: 0.5, PricePerHour: 1, NetMBps: 100}
	fleet := cloud.MustFleet("hetero", []cloud.VMType{slow, fast}, []int{4, 1})
	w := montage(t, 4)
	ga := &GA{Seed: 1, Population: 30, Generations: 40}
	res, err := sim.Run(w, fleet, ga, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != sim.FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	if err := res.Verify(w, fleet); err != nil {
		t.Fatal(err)
	}
	if ga.EstimatedMakespan <= 0 {
		t.Fatal("no estimated makespan")
	}
	// GA must clearly beat random placement on average.
	var randSum float64
	const n = 5
	for i := int64(0); i < n; i++ {
		r, err := sim.Run(w, fleet, &Random{Seed: i}, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		randSum += r.Makespan
	}
	if res.Makespan >= randSum/n {
		t.Fatalf("GA %v not better than mean random %v", res.Makespan, randSum/n)
	}
	// ... and land within 1.5x of HEFT.
	h, err := sim.Run(w, fleet, &HEFT{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > h.Makespan*1.5 {
		t.Fatalf("GA %v far above HEFT %v", res.Makespan, h.Makespan)
	}
}

func TestGADeterministic(t *testing.T) {
	w := montage(t, 5)
	fleet := fleet16(t)
	run := func() map[string]int {
		ga := &GA{Seed: 7, Population: 20, Generations: 15}
		if _, err := sim.Run(w, fleet, ga, sim.Config{}); err != nil {
			t.Fatal(err)
		}
		return ga.Assign()
	}
	a, b := run(), run()
	for id, vm := range a {
		if b[id] != vm {
			t.Fatalf("GA plans diverge at %s", id)
		}
	}
}

func TestGAImprovesOverGenerations(t *testing.T) {
	// More generations must not make the evolved fitness worse
	// (elitism guarantees monotone best fitness for the same stream of
	// chromosomes; across different streams we allow equality).
	w := montage(t, 6)
	fleet := fleet16(t)
	short := &GA{Seed: 3, Population: 20, Generations: 1}
	long := &GA{Seed: 3, Population: 20, Generations: 60}
	if _, err := sim.Run(w, fleet, short, sim.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(w, fleet, long, sim.Config{}); err != nil {
		t.Fatal(err)
	}
	if long.EstimatedMakespan > short.EstimatedMakespan {
		t.Fatalf("60 generations (%v) worse than 1 (%v)",
			long.EstimatedMakespan, short.EstimatedMakespan)
	}
}

func TestListMakespanRespectsSlots(t *testing.T) {
	// Two independent 10s tasks forced onto a 1-slot VM: 20s. Onto the
	// 8-slot VM: 10s.
	w := dag.New("lm")
	w.MustAdd("a", "x", 10)
	w.MustAdd("b", "x", 10)
	fleet := fleet16(t)
	order, _ := w.TopoOrder()
	est := func(a *dag.Activation, vm *cloud.VM) float64 { return a.Runtime / vm.Type.Speed }
	if got := listMakespan(order, []int{0, 0}, fleet, est); got != 20 {
		t.Fatalf("1-slot makespan = %v, want 20", got)
	}
	if got := listMakespan(order, []int{8, 8}, fleet, est); got != 10 {
		t.Fatalf("8-slot makespan = %v, want 10", got)
	}
}

func TestAdaptiveReplansUnderDrift(t *testing.T) {
	// Strong micro throttling the blind plan cannot see: the adaptive
	// scheduler must detect the drift, re-plan, and beat blind HEFT on
	// average.
	fluct := cloud.FluctuationModel{MicroThrottleProb: 0.5, ThrottleFactor: 3}
	fleet := fleet16(t)
	var adaptSum, blindSum float64
	replans := 0
	const n = 6
	for i := int64(0); i < n; i++ {
		w := montage(t, 20+i)
		ad := &Adaptive{}
		ares, err := sim.Run(w, fleet, ad, sim.Config{Fluct: &fluct, Seed: i})
		if err != nil {
			t.Fatal(err)
		}
		if err := ares.Verify(w, fleet); err != nil {
			t.Fatal(err)
		}
		adaptSum += ares.Makespan
		replans += ad.Replans
		bres, err := sim.Run(w, fleet, &HEFT{}, sim.Config{Fluct: &fluct, Seed: i})
		if err != nil {
			t.Fatal(err)
		}
		blindSum += bres.Makespan
	}
	if replans == 0 {
		t.Fatal("adaptive scheduler never re-planned under heavy drift")
	}
	if adaptSum >= blindSum {
		t.Fatalf("adaptive mean %v not better than blind HEFT %v", adaptSum/n, blindSum/n)
	}
}

func TestAdaptiveNoDriftNoReplan(t *testing.T) {
	// Noiseless environment: estimates hold, no re-plan should fire,
	// and the result must match blind HEFT exactly.
	w := montage(t, 30)
	fleet := fleet16(t)
	ad := &Adaptive{}
	ares, err := sim.Run(w, fleet, ad, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ad.Replans != 0 {
		t.Fatalf("re-planned %d times without drift", ad.Replans)
	}
	h := &HEFT{}
	hres, err := sim.Run(w, fleet, h, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ares.Makespan != hres.Makespan {
		t.Fatalf("adaptive %v != blind HEFT %v in a clean environment", ares.Makespan, hres.Makespan)
	}
}
