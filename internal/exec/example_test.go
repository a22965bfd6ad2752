package exec_test

import (
	"context"
	"fmt"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
)

// ExampleNew executes a two-step plan on in-process workers in virtual
// time: the makespan is exact and repeats run after run.
func ExampleNew() {
	w := dag.New("demo")
	w.MustAdd("build", "compile", 30)
	w.MustAdd("test", "verify", 20)
	w.MustDep("build", "test")

	fleet := cloud.MustFleet("ci", []cloud.VMType{cloud.T2Large}, []int{1})
	m, _ := exec.New(w, fleet, core.NewPlan(map[string]int{"build": 0, "test": 0}),
		&exec.InProc{Runner: exec.SimRunner{}})
	rep, _ := m.Run(context.Background())
	fmt.Println("done:", rep.Done, "of", rep.Tasks)
	fmt.Println("finished last:", rep.Results[len(rep.Results)-1].ID)
	fmt.Println("makespan:", rep.Makespan) // 30s + 20s at t2.large's nominal speed
	// Output:
	// done: 2 of 2
	// finished last: test
	// makespan: 50
}
