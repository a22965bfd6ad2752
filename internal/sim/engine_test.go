package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/trace"
)

// greedyFirst assigns each ready task (in order) to the first idle VM
// slot — a deterministic FCFS scheduler for engine tests.
type greedyFirst struct {
	completions []string
}

func (s *greedyFirst) Name() string { return "greedy-first" }

func (s *greedyFirst) Prepare(*dag.Workflow, *cloud.Fleet, *Env) error { return nil }

func (s *greedyFirst) Pick(ctx *Context) []Assignment {
	var out []Assignment
	free := make(map[*VMState]int)
	for _, v := range ctx.IdleVMs {
		free[v] = v.FreeSlots()
	}
	vi := 0
	for _, t := range ctx.Ready {
		for vi < len(ctx.IdleVMs) && free[ctx.IdleVMs[vi]] == 0 {
			vi++
		}
		if vi == len(ctx.IdleVMs) {
			break
		}
		v := ctx.IdleVMs[vi]
		free[v]--
		out = append(out, Assignment{Task: t, VM: v})
	}
	return out
}

func (s *greedyFirst) OnTaskComplete(t *Task, _ *Env) {
	s.completions = append(s.completions, t.Act.ID)
}

// chain builds a linear workflow t0 -> t1 -> ... with the given
// runtimes.
func chain(runtimes ...float64) *dag.Workflow {
	w := dag.New("chain")
	prev := ""
	for i, rt := range runtimes {
		id := string(rune('a' + i))
		w.MustAdd(id, "step", rt)
		if prev != "" {
			w.MustDep(prev, id)
		}
		prev = id
	}
	return w
}

func singleVMFleet() *cloud.Fleet {
	return cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
}

func TestChainMakespanIsSumOfRuntimes(t *testing.T) {
	w := chain(1, 2, 3)
	res, err := Run(w, singleVMFleet(), &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	if math.Abs(res.Makespan-6) > 1e-9 {
		t.Fatalf("makespan = %v, want 6", res.Makespan)
	}
	if len(res.Records) != 3 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if len(res.Plan) != 3 {
		t.Fatalf("plan = %v", res.Plan)
	}
}

func TestParallelTasksOverlapOnMultiSlotVM(t *testing.T) {
	// Two independent 10s tasks on one 8-slot VM finish at 10, not 20.
	w := dag.New("par")
	w.MustAdd("a", "x", 10)
	w.MustAdd("b", "x", 10)
	fleet := cloud.MustFleet("big", []cloud.VMType{cloud.T22XLarge}, []int{1})
	res, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Fatalf("makespan = %v, want 10", res.Makespan)
	}
}

func TestSingleSlotSerialises(t *testing.T) {
	w := dag.New("par")
	w.MustAdd("a", "x", 10)
	w.MustAdd("b", "x", 10)
	res, err := Run(w, singleVMFleet(), &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-20) > 1e-9 {
		t.Fatalf("makespan = %v, want 20", res.Makespan)
	}
	// The second task queued for 10s.
	var queued float64
	for _, r := range res.Records {
		queued += r.QueueTime()
	}
	if math.Abs(queued-10) > 1e-9 {
		t.Fatalf("total queue time = %v, want 10", queued)
	}
}

func TestDependencyOrderRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := trace.Montage50(rng)
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	finish := make(map[string]float64)
	start := make(map[string]float64)
	for _, r := range res.Records {
		finish[r.TaskID] = r.FinishAt
		start[r.TaskID] = r.StartAt
	}
	for _, a := range w.Activations() {
		for _, c := range a.Children() {
			if start[c.ID] < finish[a.ID]-1e-9 {
				t.Fatalf("%s started at %v before parent %s finished at %v",
					c.ID, start[c.ID], a.ID, finish[a.ID])
			}
		}
	}
}

func TestMakespanBeatsSequentialOnParallelFleet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := trace.Montage50(rng)
	fleet, _ := cloud.FleetTable1(64)
	res, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, cp, err := w.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < cp-1e-9 {
		t.Fatalf("makespan %v below critical path %v", res.Makespan, cp)
	}
	if res.Makespan > w.TotalRuntime() {
		t.Fatalf("makespan %v above sequential runtime %v", res.Makespan, w.TotalRuntime())
	}
}

func TestDataTransferAddsTime(t *testing.T) {
	w := dag.New("xfer")
	a := w.MustAdd("a", "produce", 10)
	b := w.MustAdd("b", "consume", 10)
	a.Outputs = []dag.File{{Name: "f", Size: 8_000_000}} // 8 MB
	b.Inputs = a.Outputs
	w.MustDep("a", "b")
	fleet := cloud.MustFleet("two", []cloud.VMType{cloud.T2Micro}, []int{2})

	// Scheduler that forces b onto the *other* VM.
	res, err := Run(w, fleet, &vmPinner{pins: map[string]int{"a": 0, "b": 1}}, Config{DataTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	// t2.micro at 8 MB/s: 1 second of staging for b.
	if math.Abs(res.Makespan-21) > 1e-9 {
		t.Fatalf("makespan = %v, want 21 (10+10+1 transfer)", res.Makespan)
	}

	// Same VM: no transfer.
	res2, err := Run(w, fleet, &vmPinner{pins: map[string]int{"a": 0, "b": 0}}, Config{DataTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Makespan-20) > 1e-9 {
		t.Fatalf("local makespan = %v, want 20", res2.Makespan)
	}
}

// vmPinner pins tasks to fixed VM IDs (a static plan executor).
type vmPinner struct {
	pins map[string]int
}

func (p *vmPinner) Name() string                                    { return "pinner" }
func (p *vmPinner) Prepare(*dag.Workflow, *cloud.Fleet, *Env) error { return nil }

func (p *vmPinner) Pick(ctx *Context) []Assignment {
	byID := make(map[int]*VMState)
	for _, v := range ctx.IdleVMs {
		byID[v.VM.ID] = v
	}
	var out []Assignment
	for _, t := range ctx.Ready {
		if v, ok := byID[p.pins[t.Act.ID]]; ok && v.FreeSlots() > 0 {
			out = append(out, Assignment{Task: t, VM: v})
			delete(byID, v.VM.ID)
		}
	}
	return out
}

func TestCompletionObserverSeesAllTasks(t *testing.T) {
	w := chain(1, 1, 1, 1)
	s := &greedyFirst{}
	if _, err := Run(w, singleVMFleet(), s, Config{}); err != nil {
		t.Fatal(err)
	}
	if len(s.completions) != 4 {
		t.Fatalf("observer saw %d completions, want 4", len(s.completions))
	}
	want := []string{"a", "b", "c", "d"}
	for i, id := range want {
		if s.completions[i] != id {
			t.Fatalf("completions = %v", s.completions)
		}
	}
}

func TestFluctuationChangesMakespanNotEstimate(t *testing.T) {
	w := chain(10)
	fl := cloud.FluctuationModel{MicroThrottleProb: 1, ThrottleFactor: 2}
	res, err := Run(w, singleVMFleet(), &greedyFirst{}, Config{Fluct: &fl, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-20) > 1e-9 {
		t.Fatalf("makespan = %v, want 20 under 2x throttle", res.Makespan)
	}
}

func TestInvalidInputs(t *testing.T) {
	w := chain(1)
	if _, err := Run(dag.New("empty"), singleVMFleet(), &greedyFirst{}, Config{}); err == nil {
		t.Fatal("empty workflow accepted")
	}
	if _, err := Run(w, nil, &greedyFirst{}, Config{}); err == nil {
		t.Fatal("nil fleet accepted")
	}
}

// TestRejectsFleetIDsNotIndices: a VM's ID is its index in the engine,
// so NewEngine, Run and Rebind refuse a fleet whose IDs are not
// 0..n-1 in order — gapped, shifted or permuted.
func TestRejectsFleetIDsNotIndices(t *testing.T) {
	w := chain(2)
	vm := func(id int) *cloud.VM { return &cloud.VM{ID: id, Type: cloud.T2Micro} }
	for name, ids := range map[string][]int{
		"gapped":   {0, 2},
		"shifted":  {1, 2},
		"permuted": {1, 0},
	} {
		fleet := &cloud.Fleet{Name: name}
		for _, id := range ids {
			fleet.VMs = append(fleet.VMs, vm(id))
		}
		if _, err := NewEngine(w, fleet, &greedyFirst{}, Config{}); err == nil {
			t.Errorf("%s: NewEngine accepted IDs %v", name, ids)
		}
		if _, err := Run(w, fleet, &greedyFirst{}, Config{}); err == nil {
			t.Errorf("%s: Run accepted IDs %v", name, ids)
		}
		eng, err := NewEngine(w, singleVMFleet(), &greedyFirst{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Rebind(w, fleet, &greedyFirst{}, Config{}); err == nil {
			t.Errorf("%s: Rebind accepted IDs %v", name, ids)
		}
	}
}

// lazyScheduler never assigns anything: the run must error out as a
// stall rather than hang or report success.
type lazyScheduler struct{}

func (lazyScheduler) Name() string                                    { return "lazy" }
func (lazyScheduler) Prepare(*dag.Workflow, *cloud.Fleet, *Env) error { return nil }
func (lazyScheduler) Pick(*Context) []Assignment                      { return nil }

func TestSchedulerStallDetected(t *testing.T) {
	w := chain(1)
	if _, err := Run(w, singleVMFleet(), lazyScheduler{}, Config{}); err == nil {
		t.Fatal("stalled run reported success")
	}
}

// overCommitter tries to double-book one slot; the engine must reject
// the second assignment and still finish.
type overCommitter struct{}

func (overCommitter) Name() string                                    { return "overcommit" }
func (overCommitter) Prepare(*dag.Workflow, *cloud.Fleet, *Env) error { return nil }

func (overCommitter) Pick(ctx *Context) []Assignment {
	var out []Assignment
	for _, t := range ctx.Ready {
		out = append(out, Assignment{Task: t, VM: ctx.IdleVMs[0]})
	}
	return out
}

func TestOverCommitRejected(t *testing.T) {
	w := dag.New("par")
	w.MustAdd("a", "x", 5)
	w.MustAdd("b", "x", 5)
	res, err := Run(w, singleVMFleet(), overCommitter{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	// One slot: the tasks must have run serially.
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Fatalf("makespan = %v, want 10", res.Makespan)
	}
}

func TestHorizonAborts(t *testing.T) {
	w := chain(10, 10)
	if _, err := Run(w, singleVMFleet(), &greedyFirst{}, Config{Horizon: 5}); err == nil {
		t.Fatal("horizon abort not reported")
	}
}

func TestEnvEstimateExec(t *testing.T) {
	w := chain(10)
	fleet := singleVMFleet()
	var env *Env
	s := &prepareCapture{}
	if _, err := Run(w, fleet, s, Config{DataTransfer: true}); err != nil {
		t.Fatal(err)
	}
	env = s.env
	a := w.Get("a")
	a.Inputs = []dag.File{{Name: "in", Size: 8_000_000}}
	got := env.EstimateExec(a, fleet.VMs[0])
	// 10s compute + 1s transfer at 8 MB/s.
	if math.Abs(got-11) > 1e-9 {
		t.Fatalf("EstimateExec = %v, want 11", got)
	}
}

// prepareCapture grabs the Env during Prepare, then behaves greedily.
type prepareCapture struct {
	greedyFirst
	env *Env
}

func (p *prepareCapture) Prepare(w *dag.Workflow, f *cloud.Fleet, env *Env) error {
	p.env = env
	return nil
}

func TestResultAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := trace.Montage50(rng)
	fleet, _ := cloud.FleetTable1(16)
	res, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 {
		t.Fatalf("cost = %v", res.Cost)
	}
	var n int
	for _, st := range res.PerVM {
		n += st.N
	}
	if n != 50 {
		t.Fatalf("per-VM stats cover %d tasks, want 50", n)
	}
	g := (&Env{}).GlobalStats()
	if g.N != 0 {
		t.Fatalf("fresh env global stats = %+v", g)
	}
	if res.Decisions <= 0 || res.Events <= 0 {
		t.Fatalf("decisions=%d events=%d", res.Decisions, res.Events)
	}
}

// Property: for any generated workflow and fleet, the FCFS makespan is
// bounded by [critical path / max speed, total runtime],
// every task runs exactly once, and dependencies hold.
func TestPropertySimulationInvariants(t *testing.T) {
	f := func(seed int64, rawSize uint8, famIdx uint8) bool {
		fams := trace.Families()
		fam := fams[int(famIdx)%len(fams)]
		rng := rand.New(rand.NewSource(seed))
		w := trace.Named(fam)(rng, int(rawSize)%60+10)
		fleet, err := cloud.FleetTable1(16)
		if err != nil {
			return false
		}
		res, err := Run(w, fleet, &greedyFirst{}, Config{Seed: seed})
		if err != nil {
			return false
		}
		if res.State != FinishedOK {
			return false
		}
		if len(res.Plan) != w.Len() {
			return false
		}
		_, cp, err := w.CriticalPath()
		if err != nil {
			return false
		}
		if res.Makespan < cp-1e-6 || res.Makespan > w.TotalRuntime()+1e-6 {
			return false
		}
		finish := make(map[string]float64)
		for _, r := range res.Records {
			finish[r.TaskID] = r.FinishAt
		}
		for _, a := range w.Activations() {
			for _, c := range a.Children() {
				var cs float64
				for _, r := range res.Records {
					if r.TaskID == c.ID {
						cs = r.StartAt
					}
				}
				if cs < finish[a.ID]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: same seed ⇒ identical result (determinism), even with
// fluctuation enabled.
func TestPropertyDeterministicRuns(t *testing.T) {
	f := func(seed int64) bool {
		mk := func() *Result {
			rng := rand.New(rand.NewSource(42))
			w := trace.Montage(rng, 6, 3)
			fleet, _ := cloud.FleetTable1(16)
			fl := cloud.DefaultFluctuation()
			res, err := Run(w, fleet, &greedyFirst{}, Config{Seed: seed, Fluct: &fl})
			if err != nil {
				return nil
			}
			return res
		}
		a, b := mk(), mk()
		if a == nil || b == nil {
			return false
		}
		if a.Makespan != b.Makespan || len(a.Records) != len(b.Records) {
			return false
		}
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskStateStrings(t *testing.T) {
	cases := map[string]string{
		Locked.String():    "locked",
		Ready.String():     "ready",
		Running.String():   "running",
		Succeeded.String(): "succeeded",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
	if TaskState(99).String() == "" {
		t.Fatal("unknown state printed empty")
	}
	wf := map[string]string{
		Available.String():   "available",
		Unavailable.String(): "unavailable",
		FinishedOK.String():  "successfully finished",
	}
	for got, want := range wf {
		if got != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
	if WorkflowState(99).String() == "" {
		t.Fatal("unknown workflow state printed empty")
	}
}

func TestVMStatsMeans(t *testing.T) {
	var s VMStats
	if s.MeanExec() != 0 || s.MeanWait() != 0 {
		t.Fatal("empty stats not zero")
	}
	s.add(10, 2)
	s.add(20, 4)
	if s.MeanExec() != 15 || s.MeanWait() != 3 {
		t.Fatalf("means = %v/%v", s.MeanExec(), s.MeanWait())
	}
	if s.Busy != 30 {
		t.Fatalf("busy = %v", s.Busy)
	}
}

func BenchmarkRunMontage50FCFS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := trace.Montage50(rng)
	fleet, _ := cloud.FleetTable1(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(w, fleet, &greedyFirst{}, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestVerifyAcceptsValidResults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := trace.Montage50(rng)
	fleet, _ := cloud.FleetTable1(16)
	res, err := Run(w, fleet, &greedyFirst{}, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(w, fleet); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := trace.Montage(rng, 4, 2)
	fleet, _ := cloud.FleetTable1(16)
	res, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a record: child starts before parent finished.
	for i, r := range res.Records {
		a := w.Get(r.TaskID)
		if len(a.Parents()) > 0 {
			res.Records[i].StartAt = 0
			res.Records[i].FinishAt = 0.5
			break
		}
	}
	if err := res.Verify(w, fleet); err == nil {
		t.Fatal("corrupted dependency order accepted")
	}

	// Fresh result, over-committed VM.
	res2, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res2.Records {
		res2.Records[i].VMID = 0 // t2.micro, 1 slot
		res2.Records[i].StartAt = 1
		res2.Records[i].FinishAt = 2
	}
	if err := res2.Verify(w, fleet); err == nil {
		t.Fatal("slot overcommit accepted")
	}

	// Fresh result, missing plan entry.
	res3, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	delete(res3.Plan, w.Activations()[0].ID)
	if err := res3.Verify(w, fleet); err == nil {
		t.Fatal("missing plan entry accepted")
	}
}

// TestVerifyRejectsRecordOffFleet: a record on a VM the fleet lacks
// (ID fleet.Len()) is an error, not a VM whose slot sweep is skipped.
func TestVerifyRejectsRecordOffFleet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := trace.Montage(rng, 4, 2)
	fleet, _ := cloud.FleetTable1(16)
	res, err := Run(w, fleet, &greedyFirst{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res.Records[0].VMID = fleet.Len()
	err = res.Verify(w, fleet)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("vm%d", fleet.Len())) {
		t.Fatalf("Verify = %v, want an error naming vm%d", err, fleet.Len())
	}
}

// Property: every scheduler's result passes Verify, with fluctuation
// active.
func TestPropertyVerifyAllResults(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := trace.MontageN(rng, 30)
		fleet, err := cloud.FleetTable1(32)
		if err != nil {
			return false
		}
		fl := cloud.DefaultFluctuation()
		res, err := Run(w, fleet, &greedyFirst{}, Config{Seed: seed, Fluct: &fl})
		if err != nil {
			return false
		}
		return res.Verify(w, fleet) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
