package expt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/exec"
	"reassign/internal/metrics"
	"reassign/internal/sched"
	"reassign/internal/sim"
)

// Table1 reproduces Table I: the VM configurations used in the
// experiments.
func Table1() *metrics.Table {
	t := metrics.NewTable("Table I: VM configurations used in the experiments",
		"# of VMs", "# of VMs t2.micro", "# of VMs t2.2xLarge", "# of vCPUs")
	for _, vcpus := range cloud.Table1VCPUs() {
		fleet, err := cloud.FleetTable1(vcpus)
		if err != nil {
			panic(err) // unreachable: Table1VCPUs and FleetTable1 agree
		}
		counts := fleet.CountByType()
		t.AddRowF(fleet.Len(), counts["t2.micro"], counts["t2.2xlarge"], vcpus)
	}
	return t
}

// SweepResult holds the per-combination outcomes of the 27×|fleets|
// learning sweep shared by Tables II and III.
type SweepResult struct {
	VCPUs []int
	// LearnMillis[combo][vcpus] is the wall-clock learning time in ms.
	LearnMillis map[comboKey]map[int]float64
	// PlanMakespan[combo][vcpus] is the simulated execution time of
	// the learned plan in virtual seconds.
	PlanMakespan map[comboKey]map[int]float64
	// Plans[combo][vcpus] is the extracted activation→VM plan.
	Plans map[comboKey]map[int]core.Plan
}

// PlanEvalReps is the number of simulated executions averaged when
// scoring an extracted plan. The paper's Table III reports single
// simulator runs; a single fluctuation draw swings the makespan by
// ±20%, so we report the mean instead and note the deviation in
// EXPERIMENTS.md.
const PlanEvalReps = 10

// EvalPlan scores a plan by simulating it PlanEvalReps times under
// the training fluctuation model with distinct seeds and returning
// the mean makespan.
func EvalPlan(o Options, fleet *cloud.Fleet, plan core.Plan) (float64, error) {
	o = o.withDefaults()
	assign := plan.Map()
	var sum float64
	for rep := 0; rep < PlanEvalReps; rep++ {
		res, err := sim.Run(o.Workflow, fleet, &sched.Plan{PlanName: "plan", Assign: assign},
			sim.Config{Fluct: o.TrainFluct, Seed: o.Seed + 5000 + int64(rep), Hook: o.Hook})
		if err != nil {
			return 0, err
		}
		if res.State != sim.FinishedOK {
			return 0, fmt.Errorf("expt: plan evaluation ended in %v", res.State)
		}
		sum += res.Makespan
	}
	return sum / PlanEvalReps, nil
}

// RunSweep performs the paper's full parameter sweep: for every
// Table I fleet and every (α, γ, ε) combination, learn for
// o.Episodes episodes and extract the final plan.
func RunSweep(o Options) (*SweepResult, error) {
	o = o.withDefaults()
	res := &SweepResult{
		VCPUs:        o.VCPUs,
		LearnMillis:  make(map[comboKey]map[int]float64),
		PlanMakespan: make(map[comboKey]map[int]float64),
		Plans:        make(map[comboKey]map[int]core.Plan),
	}
	for _, combo := range grid() {
		res.LearnMillis[combo] = make(map[int]float64)
		res.PlanMakespan[combo] = make(map[int]float64)
		res.Plans[combo] = make(map[int]core.Plan)
	}
	// The 27×|fleets| cells are independent; spread them over the
	// cores. Each cell seeds its own generators, so parallel execution
	// is bit-identical to sequential execution (only the wall-clock
	// learning times vary, as they would across any two runs).
	type cell struct {
		combo comboKey
		vcpus int
	}
	var cells []cell
	for _, vcpus := range o.VCPUs {
		if _, err := cloud.FleetTable1(vcpus); err != nil {
			return nil, err
		}
		for _, combo := range grid() {
			cells = append(cells, cell{combo, vcpus})
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cells) {
		workers = len(cells)
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int32
		errs []error
	)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1)) - 1
				if i >= len(cells) {
					return
				}
				c := cells[i]
				fleet, err := cloud.FleetTable1(c.vcpus)
				if err == nil {
					var lr *core.Result
					lr, err = learn(o, fleet, c.combo.alpha, c.combo.gamma, c.combo.epsilon)
					if err == nil {
						var mk float64
						mk, err = EvalPlan(o, fleet, lr.Plan)
						if err == nil {
							mu.Lock()
							res.LearnMillis[c.combo][c.vcpus] = float64(lr.LearningTime) / float64(time.Millisecond)
							res.PlanMakespan[c.combo][c.vcpus] = mk
							res.Plans[c.combo][c.vcpus] = lr.Plan
							mu.Unlock()
						}
					}
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("expt: sweep %v on %d vCPUs: %w", c.combo, c.vcpus, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// Join every cell's error: a sweep that fails in several cells
	// reports all of them, not just whichever worker lost the race.
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return res, nil
}

// Table2 renders the sweep's learning times in the paper's Table II
// layout (α, γ, ε rows × vCPU columns). Units are milliseconds of
// wall clock (the paper's WorkflowSim reports seconds; only the shape
// is comparable).
func Table2(s *SweepResult) *metrics.Table {
	headers := []string{"alpha", "gamma", "epsilon"}
	for _, v := range s.VCPUs {
		headers = append(headers, fmt.Sprintf("%d vCPUs (ms)", v))
	}
	t := metrics.NewTable("Table II: Learning time of Montage workflow", headers...)
	for _, combo := range grid() {
		row := []any{
			fmt.Sprintf("%.1f", combo.alpha),
			fmt.Sprintf("%.1f", combo.gamma),
			fmt.Sprintf("%.1f", combo.epsilon),
		}
		for _, v := range s.VCPUs {
			row = append(row, fmt.Sprintf("%.1f", s.LearnMillis[combo][v]))
		}
		t.AddRowF(row...)
	}
	return t
}

// Table3 renders the sweep's simulated plan makespans in the paper's
// Table III layout.
func Table3(s *SweepResult) *metrics.Table {
	headers := []string{"alpha", "gamma", "epsilon"}
	for _, v := range s.VCPUs {
		headers = append(headers, fmt.Sprintf("%d vCPUs (s)", v))
	}
	t := metrics.NewTable("Table III: Simulated execution time of Montage workflow", headers...)
	for _, combo := range grid() {
		row := []any{
			fmt.Sprintf("%.1f", combo.alpha),
			fmt.Sprintf("%.1f", combo.gamma),
			fmt.Sprintf("%.1f", combo.epsilon),
		}
		for _, v := range s.VCPUs {
			row = append(row, s.PlanMakespan[combo][v])
		}
		t.AddRowF(row...)
	}
	return t
}

// Table4Row is one execution-stage measurement.
type Table4Row struct {
	Algorithm string
	VCPUs     int
	Alpha     float64 // 0 for HEFT
	Gamma     float64
	Epsilon   float64
	Makespan  float64 // virtual seconds
}

// Table4Reps is the number of plan executions averaged per
// Table IV row. The paper reports single AWS runs; a single
// fluctuation draw can swing a makespan by minutes (e.g. the critical
// chain throttled twice), so we report the mean of several runs, with
// the same seed set for every algorithm (paired comparison).
const Table4Reps = 10

// RunTable4 reproduces Table IV: it executes the HEFT plan and the
// three ReASSIgN scenario plans (C1-C3: γ=1.0, ε=0.1,
// α ∈ {1.0, 0.5, 0.1}) on the exec master over in-process workers, in
// virtual time, under the "real cloud" fluctuation model, for every
// Table I fleet. Each row is the mean of Table4Reps runs with distinct
// fluctuation seeds, so the rows are a pure function of o.
func RunTable4(o Options) ([]Table4Row, error) {
	o = o.withDefaults()
	var rows []Table4Row
	for _, vcpus := range o.VCPUs {
		fleet, err := cloud.FleetTable1(vcpus)
		if err != nil {
			return nil, err
		}
		execPlan := func(plan core.Plan) (float64, error) {
			var sum float64
			for rep := 0; rep < Table4Reps; rep++ {
				runner := exec.SimRunner{
					Fluct: o.ExecFluct,
					Seed:  o.Seed + 1000 + int64(rep), // unseen environment, paired across plans
				}
				m, err := exec.New(o.Workflow, fleet, plan, &exec.InProc{Runner: runner})
				if err != nil {
					return 0, err
				}
				r, err := m.Run(context.Background())
				if err != nil {
					return 0, err
				}
				sum += r.Makespan
			}
			return sum / Table4Reps, nil
		}

		// HEFT plan from the simulator's planner.
		h := &sched.HEFT{}
		if _, err := sim.Run(o.Workflow, fleet, h, sim.Config{Hook: o.Hook}); err != nil {
			return nil, fmt.Errorf("expt: HEFT on %d vCPUs: %w", vcpus, err)
		}
		mk, err := execPlan(core.NewPlan(h.Assign()))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{Algorithm: "HEFT", VCPUs: vcpus, Makespan: mk})

		for _, sc := range Scenarios() {
			lr, err := learn(o, fleet, sc.Alpha, 1.0, 0.1)
			if err != nil {
				return nil, err
			}
			mk, err := execPlan(lr.Plan)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table4Row{
				Algorithm: "ReASSIgN", VCPUs: vcpus,
				Alpha: sc.Alpha, Gamma: 1.0, Epsilon: 0.1,
				Makespan: mk,
			})
		}
	}
	return rows, nil
}

// Table4 renders execution rows in the paper's layout: grouped by
// vCPU count, sorted by total execution time within each group.
func Table4(rows []Table4Row) *metrics.Table {
	t := metrics.NewTable("Table IV: Actual execution time of Montage workflow (exec master)",
		"Algorithm", "vCPUs", "alpha", "gamma", "epsilon", "Total Execution Time")
	sorted := append([]Table4Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].VCPUs != sorted[j].VCPUs {
			return sorted[i].VCPUs < sorted[j].VCPUs
		}
		return sorted[i].Makespan < sorted[j].Makespan
	})
	for _, r := range sorted {
		a, g, e := "-", "-", "-"
		if r.Algorithm != "HEFT" {
			a, g, e = fmt.Sprintf("%.1f", r.Alpha), fmt.Sprintf("%.1f", r.Gamma), fmt.Sprintf("%.1f", r.Epsilon)
		}
		t.AddRowF(r.Algorithm, r.VCPUs, a, g, e, metrics.FormatDuration(r.Makespan))
	}
	return t
}

// Table5 reproduces Table V: the activation→VM scheduling plan on the
// 16-vCPU fleet for HEFT and the three ReASSIgN scenarios.
func Table5(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		return nil, err
	}
	h := &sched.HEFT{}
	if _, err := sim.Run(o.Workflow, fleet, h, sim.Config{Hook: o.Hook}); err != nil {
		return nil, err
	}
	plans := map[string]core.Plan{"HEFT": core.NewPlan(h.Assign())}
	order := []string{"HEFT"}
	for _, sc := range Scenarios() {
		lr, err := learn(o, fleet, sc.Alpha, 1.0, 0.1)
		if err != nil {
			return nil, err
		}
		plans[sc.Name] = lr.Plan
		order = append(order, sc.Name)
	}
	t := metrics.NewTable("Table V: Scheduling plan for 16 vCPUs",
		"Activation ID", "HEFT", "C1", "C2", "C3")
	for i, a := range o.Workflow.Activations() {
		row := []any{i}
		for _, name := range order {
			vm, _ := plans[name].VM(a.ID)
			row = append(row, vm)
		}
		t.AddRowF(row...)
	}
	return t, nil
}

// Table5BigVMShare returns, per plan, the fraction of activations
// placed on t2.2xlarge VMs in the 16-vCPU fleet — the quantity behind
// the paper's Table V observation that ReASSIgN concentrates work on
// the robust VM (ID 8) while HEFT spreads uniformly.
func Table5BigVMShare(o Options) (map[string]float64, error) {
	o = o.withDefaults()
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		return nil, err
	}
	bigIDs := make(map[int]bool)
	for _, vm := range fleet.VMs {
		if vm.Type.VCPUs > 1 {
			bigIDs[vm.ID] = true
		}
	}
	share := func(plan core.Plan) float64 {
		n := 0
		for _, e := range plan.Entries() {
			if bigIDs[e.VM] {
				n++
			}
		}
		return float64(n) / float64(plan.Len())
	}
	h := &sched.HEFT{}
	if _, err := sim.Run(o.Workflow, fleet, h, sim.Config{Hook: o.Hook}); err != nil {
		return nil, err
	}
	out := map[string]float64{"HEFT": share(core.NewPlan(h.Assign()))}
	for _, sc := range Scenarios() {
		lr, err := learn(o, fleet, sc.Alpha, 1.0, 0.1)
		if err != nil {
			return nil, err
		}
		out[sc.Name] = share(lr.Plan)
	}
	return out, nil
}
