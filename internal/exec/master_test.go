package exec

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/provenance"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
	"reassign/internal/trace"
)

// diamond builds a 4-activation diamond: a → {b, c} → d, runtimes 10.
func diamond(t *testing.T) *dag.Workflow {
	t.Helper()
	w := dag.New("diamond")
	for _, id := range []string{"a", "b", "c", "d"} {
		w.MustAdd(id, "act-"+id, 10)
	}
	w.MustDep("a", "b")
	w.MustDep("a", "c")
	w.MustDep("b", "d")
	w.MustDep("c", "d")
	return w
}

// twoLarge provisions two 2-slot t2.large VMs.
func twoLarge(t *testing.T) *cloud.Fleet {
	t.Helper()
	fleet, err := cloud.NewFleet("test", []cloud.VMType{cloud.T2Large}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

func spreadPlan(w *dag.Workflow, fleet *cloud.Fleet) core.Plan {
	m := make(map[string]int, w.Len())
	for i, a := range w.Activations() {
		m[a.ID] = fleet.VMs[i%fleet.Len()].ID
	}
	return core.NewPlan(m)
}

func TestRunCleanDiamond(t *testing.T) {
	w, fleet := diamond(t), twoLarge(t)
	store := provenance.NewStore()
	m, err := New(w, fleet, spreadPlan(w, fleet),
		&InProc{Workers: 2, Runner: SimRunner{}},
		WithStore(store, "t"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 4 || rep.Abandoned != 0 || rep.Attempts != 4 {
		t.Fatalf("report = %+v", rep)
	}
	// a (10) → b,c in parallel (10) → d (10): makespan 30.
	if rep.Makespan != 30 {
		t.Fatalf("makespan = %v, want 30", rep.Makespan)
	}
	if store.Len() != 4 {
		t.Fatalf("provenance rows = %d, want 4", store.Len())
	}
	for _, a := range store.Attempts() {
		if a.Outcome != "ok" {
			t.Fatalf("attempt %+v not ok", a)
		}
	}
	// d must start only after both b and c finished.
	for _, e := range store.All() {
		if e.TaskID == "d" && e.StartAt < 20 {
			t.Fatalf("d started at %v, before its parents finished", e.StartAt)
		}
	}
}

func TestRunRespectsSlotLimits(t *testing.T) {
	// n independent 10s tasks on one VM: a 1-vCPU micro must serialise
	// them (4 × 10s), an 8-vCPU 2xlarge must overlap them (8 at once).
	for _, tc := range []struct {
		vm   cloud.VMType
		n    int
		want float64
	}{
		{cloud.T2Micro, 4, 40 / cloud.T2Micro.Speed},
		{cloud.T22XLarge, 8, 10 / cloud.T22XLarge.Speed},
	} {
		w := dag.New("wide")
		for i := 0; i < tc.n; i++ {
			w.MustAdd(fmt.Sprintf("t%d", i), "act", 10)
		}
		fleet, err := cloud.NewFleet("one", []cloud.VMType{tc.vm}, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(w, fleet, spreadPlan(w, fleet), &InProc{Workers: 1, Runner: SimRunner{}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Makespan != tc.want {
			t.Fatalf("%d tasks on one %s: makespan = %v, want %v", tc.n, tc.vm.Name, rep.Makespan, tc.want)
		}
	}
}

func TestRetriesWithBackoffThenSucceeds(t *testing.T) {
	w, fleet := diamond(t), twoLarge(t)
	store := provenance.NewStore()
	// failOnce fails every task's first attempt.
	runner := failOnce{inner: SimRunner{}}
	m, err := New(w, fleet, spreadPlan(w, fleet),
		&InProc{Workers: 2, Runner: runner},
		WithStore(store, "t"))
	if err != nil {
		t.Fatal(err)
	}
	m.backoffBase, m.backoffMax = 2, 60
	rep, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 4 || rep.Retries != 4 || rep.Attempts != 8 {
		t.Fatalf("report = %+v", rep)
	}
	failed, ok := 0, 0
	for _, a := range store.Attempts() {
		switch a.Outcome {
		case "failed":
			failed++
		case "ok":
			ok++
		}
	}
	if failed != 4 || ok != 4 {
		t.Fatalf("attempt outcomes: %d failed, %d ok", failed, ok)
	}
	// Executions carry the final attempt count.
	for _, e := range store.All() {
		if e.Attempts != 2 || !e.Success {
			t.Fatalf("execution %+v, want 2 attempts and success", e)
		}
	}
}

// failOnce fails the first attempt of every task deterministically.
type failOnce struct{ inner Runner }

func (r failOnce) Run(ctx context.Context, t TaskSpec) (float64, error) {
	d, err := r.inner.Run(ctx, t)
	if err != nil {
		return d, err
	}
	if t.Attempt == 1 {
		return d / 2, fmt.Errorf("first attempt always fails")
	}
	return d, nil
}

// alwaysFail fails one specific task on every attempt.
type alwaysFail struct {
	inner Runner
	task  string
}

func (r alwaysFail) Run(ctx context.Context, t TaskSpec) (float64, error) {
	if t.TaskID == r.task {
		return 1, fmt.Errorf("task %s is doomed", t.TaskID)
	}
	return r.inner.Run(ctx, t)
}

func TestAbandonCascadesToDescendants(t *testing.T) {
	w, fleet := diamond(t), twoLarge(t)
	store := provenance.NewStore()
	m, err := New(w, fleet, spreadPlan(w, fleet),
		&InProc{Workers: 2, Runner: alwaysFail{inner: SimRunner{}, task: "b"}},
		WithStore(store, "t"))
	if err != nil {
		t.Fatal(err)
	}
	m.maxAttempts, m.backoffBase, m.backoffMax = 3, 1, 4
	rep, err := m.Run(context.Background())
	if err == nil {
		t.Fatal("want an error for abandoned activations")
	}
	// b exhausts its budget; d is doomed by b. a and c still complete.
	if rep.Done != 2 || rep.Abandoned != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Failed) != 2 || rep.Failed[0] != "b" || rep.Failed[1] != "d" {
		t.Fatalf("failed = %v", rep.Failed)
	}
	doomed, err := w.Descendants("b")
	if err != nil {
		t.Fatal(err)
	}
	for id := range doomed {
		if !slices.Contains(rep.Failed, id) {
			t.Fatalf("descendant %s of b not abandoned: failed = %v", id, rep.Failed)
		}
	}
	// Provenance accounts for all four activations.
	if store.Len() != 4 {
		t.Fatalf("provenance rows = %d", store.Len())
	}
	byID := make(map[string]provenance.Execution)
	for _, e := range store.All() {
		byID[e.TaskID] = e
	}
	if byID["b"].Success || byID["d"].Success || !byID["a"].Success || !byID["c"].Success {
		t.Fatalf("success flags wrong: %+v", byID)
	}
	if byID["b"].Attempts != 3 {
		t.Fatalf("b attempts = %d, want 3", byID["b"].Attempts)
	}
	bRows := 0
	for _, a := range store.Attempts() {
		if a.RunID == "t" && a.TaskID == "b" {
			bRows++
		}
	}
	if bRows != 4 { // 3 failed + 1 abandoned marker
		t.Fatalf("b attempt history = %d rows", bRows)
	}
}

func TestWorkerLostReassignsAndFinishes(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(7)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore()
	tr := &Fault{
		Inner: &InProc{Workers: 4, Runner: SimRunner{}},
		Rate:  0.05, Seed: 11, MaxKills: 3,
	}
	m, err := New(w, fleet, spreadPlan(w, fleet), tr, WithStore(store, "t"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 50 || rep.Abandoned != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if tr.Kills() == 0 {
		t.Fatal("fault transport injected no deaths")
	}
	if rep.WorkerLost != tr.Kills() || rep.Reassigned == 0 {
		t.Fatalf("worker lost = %d (kills %d), reassigned = %d",
			rep.WorkerLost, tr.Kills(), rep.Reassigned)
	}
	lost := 0
	for _, a := range store.Attempts() {
		if a.Outcome == "lost" {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no attempts recorded as lost")
	}
}

func TestAllWorkersLostFails(t *testing.T) {
	w, fleet := diamond(t), twoLarge(t)
	m, err := New(w, fleet, spreadPlan(w, fleet), brokenSend{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "workers lost") {
		t.Fatalf("err = %v, want all-workers-lost", err)
	}
}

// brokenSend opens two workers whose sends always fail.
type brokenSend struct{}

func (brokenSend) Open(context.Context) ([]int, error) { return []int{0, 1}, nil }
func (brokenSend) Send(int, TaskSpec) error            { return fmt.Errorf("wire cut") }
func (brokenSend) Next(context.Context, float64) (Event, error) {
	return Event{}, ErrIdle
}
func (brokenSend) Close() error { return nil }

// dropResults wraps InProc and swallows the first n results, so their
// leases expire — the silent-worker scenario.
type dropResults struct {
	Transport
	n int
}

func (d *dropResults) Next(ctx context.Context, deadline float64) (Event, error) {
	for {
		ev, err := d.Transport.Next(ctx, deadline)
		if err != nil {
			return ev, err
		}
		if ev.Kind == EvResult && d.n > 0 {
			d.n--
			continue
		}
		// Also swallow heartbeats while dropping, so leases can lapse.
		if ev.Kind == EvHeartbeat && d.n > 0 {
			continue
		}
		return ev, nil
	}
}

func TestLeaseExpiryRetries(t *testing.T) {
	w := dag.New("single")
	w.MustAdd("a", "act", 10)
	fleet := twoLarge(t)
	store := provenance.NewStore()
	m, err := New(w, fleet, core.NewPlan(map[string]int{"a": 0}),
		&dropResults{Transport: &InProc{Workers: 1, Runner: SimRunner{}}, n: 1},
		WithStore(store, "t"), WithLease(15, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 1 || rep.Retries != 1 {
		t.Fatalf("report = %+v", rep)
	}
	var outcomes []string
	for _, a := range store.Attempts() {
		outcomes = append(outcomes, a.Outcome)
	}
	if len(outcomes) != 2 || outcomes[0] != "expired" || outcomes[1] != "ok" {
		t.Fatalf("attempt outcomes = %v", outcomes)
	}
}

func TestNewRejectsBadPlan(t *testing.T) {
	w, fleet := diamond(t), twoLarge(t)
	if _, err := New(nil, fleet, spreadPlan(w, fleet), &InProc{Runner: SimRunner{}}); err == nil {
		t.Fatal("nil workflow accepted")
	}
	if _, err := New(w, nil, spreadPlan(w, fleet), &InProc{Runner: SimRunner{}}); err == nil {
		t.Fatal("nil fleet accepted")
	}
	bad := core.NewPlan(map[string]int{"a": 0, "b": 1, "c": 99, "d": 0})
	if _, err := New(w, fleet, bad, &InProc{Workers: 1, Runner: SimRunner{}}); err == nil {
		t.Fatal("plan with unknown VM accepted")
	}
	missing := core.NewPlan(map[string]int{"a": 0})
	if _, err := New(w, fleet, missing, &InProc{Workers: 1, Runner: SimRunner{}}); err == nil {
		t.Fatal("incomplete plan accepted")
	}
}

func TestDeterminismBitIdentical(t *testing.T) {
	w := trace.Montage50(rand.New(rand.NewSource(3)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	run := func() ([]byte, float64) {
		store := provenance.NewStore()
		store.SetNow(func() time.Time { return fixed })
		fl := cloud.DefaultFluctuation()
		tr := &Fault{
			Inner: &InProc{Workers: 4, Runner: FailingRunner{
				Inner: SimRunner{Fluct: &fl, Seed: 5}, Rate: 0.05, Seed: 5,
			}},
			Rate: 0.01, Seed: 5, MaxKills: 2,
		}
		m, err := New(w, fleet, spreadPlan(w, fleet), tr, WithStore(store, "det"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := store.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rep.Makespan
	}
	b1, mk1 := run()
	b2, mk2 := run()
	if mk1 != mk2 {
		t.Fatalf("makespans differ: %v vs %v", mk1, mk2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("provenance stores differ between identical runs")
	}
}

// TestMakespanTracksSimulation is the sim ⇔ exec differential: with
// no fluctuation, the simulator's replay of a plan and the master's
// in-process execution of it model the same runtime/speed durations
// on VCPUs-slot VMs, so their makespans must agree. The grid covers
// three Montage shapes × seeds 1–20 × the three Table I fleets × four
// plan shapes. Agreement is to 1e-9 relative everywhere except HEFT
// plans for Montage-100 on 16 vCPUs: there queued activations contend
// for slots and the two dispatch orders differ, which is allowed to
// move the makespan by at most 2 %.
func TestMakespanTracksSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("720-case grid")
	}
	shapes := []struct {
		name string
		gen  func(*rand.Rand) *dag.Workflow
	}{
		{"montage50", trace.Montage50},
		{"montage100", func(r *rand.Rand) *dag.Workflow { return trace.MontageN(r, 100) }},
		{"montage4x2", func(r *rand.Rand) *dag.Workflow { return trace.Montage(r, 4, 2) }},
	}
	var cases, exact, contended int
	var worst float64
	for _, sh := range shapes {
		for seed := int64(1); seed <= 20; seed++ {
			w := sh.gen(rand.New(rand.NewSource(seed)))
			for _, vcpus := range cloud.Table1VCPUs() {
				fleet, err := cloud.FleetTable1(vcpus)
				if err != nil {
					t.Fatal(err)
				}
				heft, err := sim.Run(w, fleet, &sched.HEFT{}, sim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				plans := map[string]core.Plan{
					"spread": spreadPlan(w, fleet),
					"one-vm": allOn(w, fleet.VMs[0].ID),
					"random": randomPlan(w, fleet, rand.New(rand.NewSource(seed))),
					"heft":   core.NewPlan(heft.Plan),
				}
				for name, plan := range plans {
					res, err := sim.Run(w, fleet, &sched.Plan{PlanName: name, Assign: plan.Map()}, sim.Config{})
					if err != nil {
						t.Fatal(err)
					}
					m, err := New(w, fleet, plan, &InProc{Runner: SimRunner{}})
					if err != nil {
						t.Fatal(err)
					}
					rep, err := m.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					cases++
					rel := math.Abs(rep.Makespan-res.Makespan) / res.Makespan
					if rel == 0 {
						exact++
					}
					bound := 1e-9
					if sh.name == "montage100" && vcpus == 16 && name == "heft" {
						bound = 0.02
						if rel > 1e-9 {
							contended++
						}
						worst = math.Max(worst, rel)
					}
					if rel > bound {
						t.Errorf("%s seed %d, %d vCPUs, %s plan: exec makespan %v vs sim %v (%.3g relative, bound %g)",
							sh.name, seed, vcpus, name, rep.Makespan, res.Makespan, rel, bound)
					}
				}
			}
		}
	}
	t.Logf("%d cases: %d exact, %d within 1e-9, %d on the contended cell beyond it (worst %.3g)",
		cases, exact, cases-contended, contended, worst)
}

// randomPlan pins each activation of w to a uniformly drawn VM.
func randomPlan(w *dag.Workflow, fleet *cloud.Fleet, rng *rand.Rand) core.Plan {
	m := make(map[string]int, w.Len())
	for _, a := range w.Activations() {
		m[a.ID] = fleet.VMs[rng.Intn(fleet.Len())].ID
	}
	return core.NewPlan(m)
}

// allOn pins every activation of w to one VM.
func allOn(w *dag.Workflow, vm int) core.Plan {
	m := make(map[string]int, w.Len())
	for _, a := range w.Activations() {
		m[a.ID] = vm
	}
	return core.NewPlan(m)
}

// Property: on random layered DAGs, random plans and random worker
// counts under the default fluctuation model, the master completes
// every activation exactly once, and no activation starts before each
// of its parents has finished.
func TestPropertyResultsHonourDependencies(t *testing.T) {
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	fl := cloud.DefaultFluctuation()
	f := func(seed int64, nodes, levels, workers uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := trace.RandomLayered(rng, 1+int(nodes)%60, 1+int(levels)%8, 3, 1, 50)
		m, err := New(w, fleet, randomPlan(w, fleet, rng), &InProc{
			Workers: 1 + int(workers)%4,
			Runner:  SimRunner{Fluct: &fl, Seed: seed},
		})
		if err != nil {
			t.Log(err)
			return false
		}
		rep, err := m.Run(context.Background())
		if err != nil || rep.Done != w.Len() || len(rep.Results) != w.Len() {
			t.Logf("seed %d: err %v, %d/%d done", seed, err, rep.Done, w.Len())
			return false
		}
		byID := make(map[string]TaskResult, len(rep.Results))
		for _, r := range rep.Results {
			if _, dup := byID[r.ID]; dup || !r.Done {
				t.Logf("seed %d: %s reported twice or unfinished", seed, r.ID)
				return false
			}
			byID[r.ID] = r
		}
		for _, a := range w.Activations() {
			for _, p := range a.Parents() {
				if byID[a.ID].Start < byID[p.ID].Finish {
					t.Logf("seed %d: %s started at %v, before parent %s finished at %v",
						seed, a.ID, byID[a.ID].Start, p.ID, byID[p.ID].Finish)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTelemetryEventsEmitted(t *testing.T) {
	w, fleet := diamond(t), twoLarge(t)
	sink := &captureSink{}
	m, err := New(w, fleet, spreadPlan(w, fleet),
		&InProc{Workers: 2, Runner: failOnce{inner: SimRunner{}}},
		WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, e := range sink.events {
		kinds[e.Kind()]++
	}
	if kinds["exec_dispatch"] != 8 || kinds["exec_complete"] != 4 ||
		kinds["exec_retry"] != 4 || kinds["exec_run"] != 1 {
		t.Fatalf("event kinds = %v", kinds)
	}
}

type captureSink struct{ events []telemetry.Event }

func (s *captureSink) Emit(e telemetry.Event) { s.events = append(s.events, e) }

// TestRepinPolicies drives repin's two policies on a 1-slot and an
// 8-slot VM of equal speed: the earliest finish (backlog per slot,
// queued and running, plus the estimate; the lowest ID on ties) and,
// WithQTable, the table's best survivor. Dead and cordoned VMs are no
// candidates unless every live VM is cordoned.
func TestRepinPolicies(t *testing.T) {
	w := dag.New("one")
	a := w.MustAdd("a", "act", 100)
	var fill []int // backlog fodder, 100 s each
	for i := 0; i < 10; i++ {
		fill = append(fill, w.MustAdd(fmt.Sprintf("f%d", i), "act", 100).Index)
	}
	fleet, err := cloud.NewFleet("mix", []cloud.VMType{cloud.T2Micro, cloud.T22XLarge}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	table := rl.NewTable(w.Len(), fleet.Len(), rand.New(rand.NewSource(1)), 0)
	table.Set(rl.Key{Task: a.Index, VM: 0}, 1)
	table.Set(rl.Key{Task: a.Index, VM: 1}, 5)
	type load struct{ queued, running int }
	cases := []struct {
		name     string
		table    *rl.Table
		load     [2]load
		dead     [2]bool
		cordoned [2]bool
		want     int
	}{
		{name: "idle tie", want: 0},
		{name: "backlog per slot", load: [2]load{{1, 0}, {1, 0}}, want: 1},
		{name: "running counts", load: [2]load{{1, 0}, {1, 8}}, want: 0},
		{name: "backlog flips", load: [2]load{{0, 1}, {10, 0}}, want: 0},
		{name: "dead skipped", load: [2]load{{}, {10, 0}}, dead: [2]bool{true, false}, want: 1},
		{name: "cordoned skipped", load: [2]load{{1, 0}, {}}, cordoned: [2]bool{false, true}, want: 0},
		{name: "all cordoned parks", load: [2]load{{1, 0}, {}}, cordoned: [2]bool{true, true}, want: 1},
		{name: "qtable best", table: table, load: [2]load{{}, {10, 0}}, want: 1},
		{name: "qtable skips dead", table: table, dead: [2]bool{false, true}, want: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &captureSink{}
			m, err := New(w, fleet, spreadPlan(w, fleet), &InProc{Workers: 1, Runner: SimRunner{}},
				WithSink(sink), WithQTable(tc.table))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, vs := range m.vms {
				vs.queue = append([]int(nil), fill[:tc.load[i].queued]...)
				vs.running = nil
				for _, ti := range fill[:tc.load[i].running] {
					vs.running = append(vs.running, int32(ti))
				}
				vs.dead, vs.cordoned = tc.dead[i], tc.cordoned[i]
			}
			ts := m.tasks[a.Index]
			from := ts.vm
			if got := m.repin(ts).vm.ID; got != tc.want || ts.vm != tc.want {
				t.Fatalf("repin picked vm%d (task pinned to vm%d), want vm%d", got, ts.vm, tc.want)
			}
			ev, ok := sink.events[len(sink.events)-1].(telemetry.ExecReassignEvent)
			want := telemetry.ExecReassignEvent{Task: "a", FromVM: from, ToVM: tc.want, Time: m.now, Policy: "earliest-finish"}
			if tc.table != nil {
				want.Policy = "qtable"
			}
			if !ok || ev != want {
				t.Fatalf("last event %+v, want %+v", sink.events[len(sink.events)-1], want)
			}
		})
	}
}

// TestDispatchWorklistAllocFree: a dispatch pass recycles its drained
// worklist as the next pass's carry scratch, so marking VMs and
// dispatching allocates nothing once warm — handing the next pass an
// exhausted tail would regrow the worklist on every turn. Starting and
// stopping an attempt allocates nothing either: the running sets are
// carved to their VMs' slots.
func TestDispatchWorklistAllocFree(t *testing.T) {
	w, fleet := diamond(t), twoLarge(t)
	m, err := New(w, fleet, spreadPlan(w, fleet), &InProc{Workers: 2, Runner: SimRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, vs := range m.vms {
			m.markVM(vs)
		}
		if err := m.dispatch(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a dispatch pass allocates %.1f times, want 0", allocs)
	}

	m.tr = discardSends{m.tr}
	ts := m.tasks[0]
	vs := m.vmByID[ts.vm]
	// A higher index already running makes send insert before it.
	vs.running = append(vs.running[:0], int32(len(m.tasks)-1))
	allocs = testing.AllocsPerRun(100, func() {
		if err := m.send(ts, vs); err != nil {
			t.Fatal(err)
		}
		m.stop(ts)
	})
	if allocs != 0 {
		t.Fatalf("a send→stop cycle allocates %.1f times, want 0", allocs)
	}
	if len(vs.running) != 1 || int(vs.running[0]) != len(m.tasks)-1 {
		t.Fatalf("running set after send→stop = %v", vs.running)
	}
}

// discardSends accepts every dispatch and delivers none.
type discardSends struct{ Transport }

func (discardSends) Send(int, TaskSpec) error { return nil }
