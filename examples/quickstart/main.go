// Quickstart: build a small workflow, learn a schedule with ReASSIgN,
// compare it against HEFT, and execute the learned plan on the exec
// master.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
	"reassign/internal/metrics"
	"reassign/internal/sched"
	"reassign/internal/sim"
)

func main() {
	// 1. Describe a workflow: a small fork-join pipeline. Runtimes are
	// reference seconds on a nominal core.
	w := dag.New("quickstart")
	w.MustAdd("load", "load", 5)
	w.MustAdd("merge", "merge", 10)
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("proc%d", i)
		w.MustAdd(id, "process", 20)
		w.MustDep("load", id)
		w.MustDep(id, "merge")
	}
	if err := w.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workflow %s: %d activations, %d edges\n", w.Name, w.Len(), w.Edges())

	// 2. Provision the paper's smallest fleet: 8×t2.micro + 1×t2.2xlarge.
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		log.Fatal(err)
	}

	// The environment fluctuates: micro instances get throttled, any
	// VM may pause for a live migration. Schedulers never see this in
	// their estimates — ReASSIgN learns it from measured times.
	fluct := cloud.DefaultFluctuation()
	cfg := sim.Config{Fluct: &fluct, Seed: 42}

	// 3. Baseline: HEFT's static plan, simulated.
	heft := &sched.HEFT{}
	heftRes, err := sim.Run(w, fleet, heft, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HEFT:     makespan %7.2fs (%s)\n",
		heftRes.Makespan, metrics.FormatDuration(heftRes.Makespan))

	// 4. ReASSIgN: 100 learning episodes, then greedy plan extraction.
	learner, err := core.NewLearner(core.Config{
		Workflow: w,
		Fleet:    fleet,
		Params:   core.DefaultParams(), // α=0.5, γ=1.0, ε=0.1, μ=0.5
		Episodes: 100,
		Sim:      cfg,
	}, core.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	lr, err := learner.Learn()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ReASSIgN: makespan %7.2fs (%s), learned in %v over %d episodes\n",
		lr.PlanMakespan, metrics.FormatDuration(lr.PlanMakespan),
		lr.LearningTime, len(lr.Episodes))

	// 5. Execute the learned plan on the exec master: in-process
	// workers, one slot per vCPU, in virtual time.
	m, err := exec.New(w, fleet, lr.Plan, &exec.InProc{Runner: exec.SimRunner{
		Fluct: &fluct,
		Seed:  4242, // an environment the learner never saw
	}})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := m.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	vms := make(map[int]bool)
	for _, r := range rep.Results {
		vms[r.VM] = true
	}
	fmt.Printf("executed: makespan %7.2fs (%s) across %d VMs\n",
		rep.Makespan, metrics.FormatDuration(rep.Makespan), len(vms))
	for _, r := range rep.Results {
		fmt.Printf("  %-6s on vm%d  start %6.2f  finish %6.2f\n",
			r.ID, r.VM, r.Start, r.Finish)
	}
}
