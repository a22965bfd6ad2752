package estimate_test

import (
	"fmt"
	"math/rand"

	"reassign/internal/cloud"
	"reassign/internal/estimate"
	"reassign/internal/provenance"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// Example runs the cross-execution loop: ten blind runs of Montage-50
// record provenance, the estimator calibrates from that store and
// sees the throttled micro instances, and HEFT planned with the
// calibrated costs beats HEFT planned with nominal runtimes on eight
// fresh fluctuating environments.
func Example() {
	w := trace.Montage50(rand.New(rand.NewSource(21)))
	fleet, _ := cloud.FleetTable1(16)
	fluct := cloud.DefaultFluctuation()

	store := provenance.NewStore()
	for i := int64(0); i < 10; i++ {
		res, _ := sim.Run(w, fleet, &sched.Random{Seed: i}, sim.Config{Fluct: &fluct, Seed: i})
		for _, r := range res.Records {
			store.Add(provenance.Execution{
				WorkflowName: w.Name, RunID: fmt.Sprintf("blind-%d", i),
				TaskID: r.TaskID, Activity: r.Activity,
				VMID: r.VMID, VMType: r.VMType,
				ReadyAt: r.ReadyAt, StartAt: r.StartAt, FinishAt: r.FinishAt,
				Attempts: r.Attempts, Success: r.Success,
			})
		}
	}
	est := estimate.New(cloud.Types())
	fmt.Println("calibrated from", est.ObserveStore(store, ""), "records")
	fmt.Printf("t2.micro runs %.2fx slower than the fastest type\n", est.SlowdownFactorMin("t2.micro", 1))

	meanMakespan := func(s sim.Scheduler) float64 {
		var sum float64
		for i := int64(100); i < 108; i++ {
			res, _ := sim.Run(w, fleet, s, sim.Config{Fluct: &fluct, Seed: i})
			sum += res.Makespan
		}
		return sum / 8
	}
	blind := meanMakespan(&sched.HEFT{})
	calibrated := meanMakespan(&sched.HEFT{Costs: est.CostFunc()})
	fmt.Printf("calibrated HEFT is %.0f%% faster than blind HEFT\n", 100*(blind-calibrated)/blind)
	// Output:
	// calibrated from 500 records
	// t2.micro runs 1.15x slower than the fastest type
	// calibrated HEFT is 7% faster than blind HEFT
}
