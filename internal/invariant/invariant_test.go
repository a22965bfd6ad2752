package invariant

import (
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

func montage(t testing.TB, seed int64) *dag.Workflow {
	t.Helper()
	return trace.Montage50(rand.New(rand.NewSource(seed)))
}

func fleet16(t testing.TB) *cloud.Fleet {
	t.Helper()
	f, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// schedulers are the baselines the sweep audits: the ones that place
// work from the live state at each decision, then the ones that pin
// activations to VMs planned before the run. Stateful ones get a fresh
// instance per run.
func schedulers() []struct {
	name string
	mk   func() sim.Scheduler
} {
	return []struct {
		name string
		mk   func() sim.Scheduler
	}{
		{"FCFS", func() sim.Scheduler { return &sched.FCFS{} }},
		{"RoundRobin", func() sim.Scheduler { return &sched.RoundRobin{} }},
		{"Random", func() sim.Scheduler { return &sched.Random{Seed: 11} }},
		{"MCT", func() sim.Scheduler { return &sched.MCT{} }},
		{"MinMin", func() sim.Scheduler { return &sched.MinMin{} }},
		{"MaxMin", func() sim.Scheduler { return &sched.MaxMin{} }},
		{"DataAware", func() sim.Scheduler { return &sched.DataAware{} }},
		{"CheapFirst", func() sim.Scheduler { return &sched.CheapFirst{} }},
		{"HEFT", func() sim.Scheduler { return &sched.HEFT{} }},
		{"GA", func() sim.Scheduler { return &sched.GA{Population: 12, Generations: 6, Seed: 5} }},
		{"Adaptive", func() sim.Scheduler { return &sched.Adaptive{} }},
	}
}

func dumpViolations(t *testing.T, aud *Auditor) {
	t.Helper()
	for _, v := range aud.Violations() {
		t.Logf("  %s", v)
	}
}

// TestAuditSweep runs every scheduler across the scenario grid with
// the auditor attached and demands zero invariant violations. This is
// the harness's core claim: the engine's structural invariants hold
// with and without fluctuation and data transfer.
func TestAuditSweep(t *testing.T) {
	w := montage(t, 3)
	fl := fleet16(t)
	fluct := cloud.DefaultFluctuation()

	base := []struct {
		name string
		cfg  sim.Config
	}{
		{"plain", sim.Config{Seed: 7}},
		{"fluct", sim.Config{Seed: 7, Fluct: &fluct}},
		{"dt", sim.Config{Seed: 7, DataTransfer: true}},
	}

	aud := New()
	runs := 0
	run := func(schedName string, s sim.Scheduler, scName string, cfg sim.Config) {
		t.Helper()
		cfg.Hook = aud
		if _, err := sim.Run(w, fl, s, cfg); err != nil {
			t.Fatalf("%s/%s: %v", schedName, scName, err)
		}
		runs++
	}
	for _, sc := range base {
		for _, s := range schedulers() {
			run(s.name, s.mk(), sc.name, sc.cfg)
		}
	}
	if aud.Runs() != runs {
		t.Fatalf("auditor observed %d runs, drove %d", aud.Runs(), runs)
	}
	if err := aud.Err(); err != nil {
		dumpViolations(t, aud)
		t.Fatal(err)
	}
}

// TestAuditClusteredWorkflow audits a run of a clustered workflow
// (horizontal + vertical merging) with data transfer enabled.
func TestAuditClusteredWorkflow(t *testing.T) {
	cw, err := sim.Clustering{Horizontal: true, GroupSize: 3, Vertical: true}.Apply(montage(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	aud := New()
	res, err := sim.Run(cw.Workflow, fleet16(t), &sched.MCT{},
		sim.Config{Seed: 9, DataTransfer: true, Hook: aud})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != sim.FinishedOK {
		t.Fatalf("state = %v", res.State)
	}
	if err := aud.Err(); err != nil {
		dumpViolations(t, aud)
		t.Fatal(err)
	}
}

// TestAuditReplicaLearning attaches one shared auditor to concurrent
// replica learners: every episode of every replica is audited, and
// the auditor's shared state must survive the concurrency (the race
// detector covers the locking).
func TestAuditReplicaLearning(t *testing.T) {
	aud := New()
	l, err := core.NewLearner(core.Config{
		Workflow: montage(t, 1), Fleet: fleet16(t), Episodes: 8,
		Sim: sim.Config{Hook: aud},
	}, core.WithSeed(42), core.WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LearnReplicas(); err != nil {
		t.Fatal(err)
	}
	if aud.Runs() < 3*8 {
		t.Fatalf("auditor observed %d runs, want at least %d episodes", aud.Runs(), 3*8)
	}
	if err := aud.Err(); err != nil {
		dumpViolations(t, aud)
		t.Fatal(err)
	}
}

// envGrab is a FCFS scheduler that captures the run's Env so the
// detection tests below can drive a runAudit directly with synthetic
// (invalid) event sequences.
type envGrab struct {
	sched.FCFS
	env *sim.Env
}

func (s *envGrab) Prepare(_ *dag.Workflow, _ *cloud.Fleet, env *sim.Env) error {
	s.env = env
	return nil
}

// grabEnv runs a tiny simulation and returns its Env (still valid
// after the run) plus the workflow's activations.
func grabEnv(t *testing.T) (*sim.Env, []*dag.Activation) {
	t.Helper()
	w := dag.New("tiny")
	w.MustAdd("a", "x", 1)
	w.MustAdd("b", "x", 1)
	g := &envGrab{}
	fl := cloud.MustFleet("one", []cloud.VMType{cloud.T2Micro}, []int{1})
	if _, err := sim.Run(w, fl, g, sim.Config{}); err != nil {
		t.Fatal(err)
	}
	return g.env, w.Activations()
}

func rules(aud *Auditor) map[string]bool {
	m := make(map[string]bool)
	for _, v := range aud.Violations() {
		m[v.Rule] = true
	}
	return m
}

// TestAuditorDetectsViolations feeds hand-built invalid event
// sequences straight into the hook and checks each rule fires. A
// harness that cannot flag broken runs proves nothing by staying
// silent on good ones.
func TestAuditorDetectsViolations(t *testing.T) {
	env, acts := grabEnv(t)
	vm := func(id int) *sim.VMState {
		return &sim.VMState{VM: &cloud.VM{ID: id, Type: cloud.T2Micro}, Slots: 1}
	}
	task := func(i int, st sim.TaskState, readyAt float64) *sim.Task {
		return &sim.Task{Act: acts[i], State: st, ReadyAt: readyAt}
	}

	t.Run("clock-monotonic", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		h.TaskReady(5, task(0, sim.Ready, 5))
		h.TaskReady(3, task(1, sim.Ready, 3))
		if !rules(aud)["clock-monotonic"] {
			t.Fatalf("backwards clock not flagged: %v", aud.Violations())
		}
	})

	t.Run("clock-nan", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		h.TaskReady(math.NaN(), task(0, sim.Ready, 0))
		if !rules(aud)["clock-nan"] {
			t.Fatalf("NaN clock not flagged: %v", aud.Violations())
		}
	})

	t.Run("ready-order", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		h.Decision(3, &sim.Context{Now: 3, Env: env, Ready: []*sim.Task{
			task(1, sim.Ready, 2), // later ReadyAt first: out of order
			task(0, sim.Ready, 1),
		}})
		if !rules(aud)["ready-order"] {
			t.Fatalf("unsorted ready queue not flagged: %v", aud.Violations())
		}
	})

	t.Run("ready-duplicate", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		dup := task(0, sim.Ready, 1)
		h.Decision(3, &sim.Context{Now: 3, Env: env, Ready: []*sim.Task{dup, dup}})
		if !rules(aud)["ready-duplicate"] {
			t.Fatalf("duplicate ready task not flagged: %v", aud.Violations())
		}
	})

	t.Run("ctx-clock-skew", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		h.Decision(3, &sim.Context{Now: 2, Env: env})
		if !rules(aud)["ctx-clock"] {
			t.Fatalf("context clock skew not flagged: %v", aud.Violations())
		}
	})

	t.Run("double-start-and-overcommit", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		v := vm(9)
		tk := task(0, sim.Running, 0)
		tk.Attempts = 1
		h.TaskStart(1, tk, v)
		tk.Attempts = 2
		h.TaskStart(2, tk, v) // same 1-slot VM, same still-running task
		got := rules(aud)
		if !got["double-start"] || !got["slot-overcommit"] {
			t.Fatalf("double start / overcommit not flagged: %v", aud.Violations())
		}
	})

	t.Run("attempt-without-record", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		tk := task(0, sim.Running, 0)
		tk.Attempts = 1
		h.TaskStart(1, tk, vm(9))
		h.RunEnd(&sim.Result{})
		got := rules(aud)
		if !got["task-still-running"] || !got["attempt-record-mismatch"] {
			t.Fatalf("dangling attempt not flagged: %v", aud.Violations())
		}
	})

	t.Run("finish-state", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		v := vm(9)
		tk := task(0, sim.Running, 0)
		tk.Attempts = 1
		h.TaskStart(1, tk, v)
		tk.FinishAt = 2
		h.TaskFinish(2, tk, v) // still Running: the engine never set Succeeded
		if !rules(aud)["finish-state"] {
			t.Fatalf("finish without success state not flagged: %v", aud.Violations())
		}
	})

	t.Run("terminal-count", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		v := vm(9)
		twice := task(0, sim.Running, 0)
		for i := 1; i <= 2; i++ {
			twice.State, twice.Attempts = sim.Running, i
			h.TaskStart(float64(i), twice, v)
			twice.State, twice.FinishAt = sim.Succeeded, float64(i)+0.5
			h.TaskFinish(float64(i)+0.5, twice, v)
		}
		never := task(1, sim.Running, 0)
		never.Attempts = 1
		h.TaskStart(3, never, v) // started, never finished
		h.RunEnd(&sim.Result{})
		var n int
		for _, x := range aud.Violations() {
			if x.Rule == "terminal-count" {
				n++
			}
		}
		if n != 2 {
			t.Fatalf("want terminal-count for the twice-finished and the never-finished task: %v", aud.Violations())
		}
	})

	t.Run("makespan-mismatch", func(t *testing.T) {
		aud := New()
		h := aud.RunStart(env)
		h.RunEnd(&sim.Result{
			Records:  []sim.Record{{TaskID: "a", FinishAt: 10}},
			Makespan: 5})
		if !rules(aud)["makespan"] {
			t.Fatalf("wrong makespan not flagged: %v", aud.Violations())
		}
	})
}

// TestAuditorLimit checks the violation storage cap: everything is
// counted, only the first `limit` are kept.
func TestAuditorLimit(t *testing.T) {
	env, acts := grabEnv(t)
	aud := New()
	aud.limit = 1
	h := aud.RunStart(env)
	h.TaskReady(5, &sim.Task{Act: acts[0], State: sim.Ready, ReadyAt: 5})
	h.TaskReady(3, &sim.Task{Act: acts[1], State: sim.Ready, ReadyAt: 3})
	h.TaskReady(1, &sim.Task{Act: acts[1], State: sim.Ready, ReadyAt: 1})
	if aud.Total() != 2 {
		t.Fatalf("Total = %d, want 2", aud.Total())
	}
	if len(aud.Violations()) != 1 {
		t.Fatalf("stored %d violations, want 1", len(aud.Violations()))
	}
	if aud.Err() == nil {
		t.Fatal("Err() nil despite violations")
	}
}
