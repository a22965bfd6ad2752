// Provenance: the cross-execution learning loop of SciCumulus-RL —
// execute blindly, record provenance, calibrate a runtime estimator
// from the history, and reschedule better. It also shows resuming a
// ReASSIgN Q table from a previous session (the paper: "all
// information associated with the previous episodes is loaded
// allowing the progression of learning").
//
// Run with: go run ./examples/provenance
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/estimate"
	"reassign/internal/provenance"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

func main() {
	w := trace.Montage50(rand.New(rand.NewSource(21)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		log.Fatal(err)
	}
	fluct := cloud.DefaultFluctuation()

	// --- 1. Blind era: FCFS scheduling, provenance recorded. -----------
	store := provenance.NewStore()
	est := estimate.New(cloud.Types())
	var blindSum float64
	const history = 10
	for i := int64(0); i < history; i++ {
		res, err := sim.Run(w, fleet, &sched.Random{Seed: i}, sim.Config{Fluct: &fluct, Seed: i})
		if err != nil {
			log.Fatal(err)
		}
		blindSum += res.Makespan
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
	fmt.Printf("blind random era: %d runs, mean makespan %.1fs, %d provenance records\n",
		history, blindSum/history, store.Len())

	// --- 2. Calibrate an estimator from the provenance database. -------
	n := est.ObserveStore(store, "")
	fmt.Printf("estimator calibrated from %d records\n", n)
	fmt.Printf("observed micro-instance slowdown: %.2fx vs t2.2xlarge\n",
		est.SlowdownFactor("t2.micro"))
	for _, line := range est.Report()[:4] {
		fmt.Println("  ", line)
	}

	// --- 3. Informed era: calibrated HEFT vs blind HEFT. ---------------
	meanOf := func(s sim.Scheduler) float64 {
		var sum float64
		for i := int64(100); i < 108; i++ {
			res, err := sim.Run(w, fleet, s, sim.Config{Fluct: &fluct, Seed: i})
			if err != nil {
				log.Fatal(err)
			}
			sum += res.Makespan
		}
		return sum / 8
	}
	blindHEFT := meanOf(&sched.HEFT{})
	calibratedHEFT := meanOf(&sched.HEFT{Costs: est.CostFunc()})
	fmt.Printf("blind HEFT:      %.1fs mean makespan\n", blindHEFT)
	fmt.Printf("calibrated HEFT: %.1fs mean makespan (%.0f%% better)\n",
		calibratedHEFT, 100*(blindHEFT-calibratedHEFT)/blindHEFT)

	// --- 4. ReASSIgN with a persisted Q table across sessions. ---------
	qPath := filepath.Join(os.TempDir(), "reassign_qtable_example.json")
	session := func(table *rl.Table, episodes int) (*core.Result, error) {
		opts := []core.Option{core.WithSeed(21)}
		if table != nil {
			opts = append(opts, core.WithTable(table))
		}
		l, err := core.NewLearner(core.Config{
			Workflow: w, Fleet: fleet,
			Params: core.DefaultParams(), Episodes: episodes,
			Sim: sim.Config{Fluct: &fluct},
		}, opts...)
		if err != nil {
			return nil, err
		}
		return l.Learn()
	}
	first, err := session(nil, 50)
	if err != nil {
		log.Fatal(err)
	}
	if err := first.Table.SaveFile(qPath); err != nil {
		log.Fatal(err)
	}
	resumed := rl.NewTable(w.Len(), len(fleet.VMs), rand.New(rand.NewSource(99)), 1)
	if err := resumed.LoadFile(qPath); err != nil {
		log.Fatal(err)
	}
	second, err := session(resumed, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ReASSIgN session 1 (50 episodes): plan makespan %.1fs, %d Q entries\n",
		first.PlanMakespan, first.Table.Len())
	fmt.Printf("ReASSIgN session 2 (resumed +50): plan makespan %.1fs, %d Q entries\n",
		second.PlanMakespan, second.Table.Len())
	fmt.Println("Q table persisted at", qPath)
}
