package exec_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
	"reassign/internal/sim"
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

// Example_pipeline is the paper's two stages in library form, and the
// snippet README.md shows: learn a plan in simulation, then execute it
// on the exec master.
func Example_pipeline() {
	w := dag.New("my-workflow") // or dax.ReadFile("wf.dax")
	w.MustAdd("a", "extract", 30)
	w.MustAdd("b", "transform", 60)
	w.MustDep("a", "b")

	fleet, _ := cloud.FleetTable1(16)   // 8×t2.micro + 1×t2.2xlarge
	fluct := cloud.DefaultFluctuation() // throttling, migrations, noise

	l, _ := core.NewLearner(core.Config{
		Workflow: w, Fleet: fleet,
		Params:   core.DefaultParams(), // α=0.5 γ=1.0 ε=0.1 μ=0.5
		Episodes: 100,                  // 0 would also mean 100
		Sim:      sim.Config{Fluct: &fluct},
	}, core.WithSeed(42))
	res, _ := l.Learn()                  // stage 1: simulate + learn
	m, _ := exec.New(w, fleet, res.Plan, // stage 2: execute the plan
		&exec.InProc{Runner: exec.SimRunner{Fluct: &fluct, Seed: 7}})
	rep, _ := m.Run(context.Background()) // in-process workers, virtual time
	fmt.Printf("makespan %.0fs\n", rep.Makespan)
	// Output:
	// makespan 98s
}

// TestReadmeShowsExamplePipeline keeps README.md's library snippet
// identical to the body of Example_pipeline, so the snippet is what
// go test runs.
func TestReadmeShowsExamplePipeline(t *testing.T) {
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(src), "func Example_pipeline() {\n")
	body, _, _ = strings.Cut(body, "\t// Output:")
	var want strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		want.WriteString(strings.TrimPrefix(line, "\t"))
	}
	_, snippet, _ := strings.Cut(string(readme), "Library use in ~20 lines")
	_, snippet, _ = strings.Cut(snippet, "```go\n")
	snippet, _, _ = strings.Cut(snippet, "```")
	if snippet != want.String() {
		t.Fatalf("README.md's library snippet differs from Example_pipeline:\n%s\nwant:\n%s", snippet, want.String())
	}
}
