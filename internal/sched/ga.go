package sched

import (
	"fmt"
	"math"
	"math/rand"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/randsrc"
	"reassign/internal/sim"
)

// GA is a genetic-algorithm planner — the metaheuristic baseline
// family of the cloud-scheduling literature the paper positions
// against. A chromosome is a full activation→VM assignment; fitness
// is the estimated makespan of list-scheduling that assignment in
// topological order (earliest slot per VM, nominal estimates).
// Tournament selection, uniform crossover, per-gene mutation,
// elitism of one.
type GA struct {
	// Population size (default 40) and Generations (default 60).
	Population  int
	Generations int
	// MutationRate is the per-gene reassignment probability
	// (default 0.02).
	MutationRate float64
	// Seed drives the whole search.
	Seed int64

	plan Plan
	// EstimatedMakespan is the fitness of the best chromosome.
	EstimatedMakespan float64
}

// Name implements sim.Scheduler.
func (*GA) Name() string { return "GA" }

// Prepare implements sim.Scheduler: it runs the evolutionary search
// and freezes the best plan.
func (g *GA) Prepare(w *dag.Workflow, fleet *cloud.Fleet, env *sim.Env) error {
	pop := g.Population
	if pop <= 0 {
		pop = 40
	}
	gens := g.Generations
	if gens <= 0 {
		gens = 60
	}
	mut := g.MutationRate
	if mut <= 0 {
		mut = 0.02
	}
	order, err := w.TopoOrder()
	if err != nil {
		return err
	}
	rng := rand.New(randsrc.New(g.Seed))
	n := w.Len()
	m := fleet.Len()
	if m == 0 {
		return fmt.Errorf("sched: GA on empty fleet")
	}

	est := func(a *dag.Activation, vm *cloud.VM) float64 { return execCost(a, vm, env) }
	fitness := func(genes []int) float64 {
		return listMakespan(order, genes, fleet, est)
	}

	// Initial population: random assignments plus one greedy seed
	// (every task on its fastest VM).
	chrom := make([][]int, pop)
	for i := range chrom {
		genes := make([]int, n)
		for j := range genes {
			genes[j] = rng.Intn(m)
		}
		chrom[i] = genes
	}
	for j, a := range w.Activations() {
		best, bestCost := 0, math.Inf(1)
		for _, vm := range fleet.VMs {
			if c := est(a, vm); c < bestCost {
				best, bestCost = vm.ID, c
			}
		}
		chrom[0][a.Index] = best
		_ = j
	}

	fit := make([]float64, pop)
	for i := range chrom {
		fit[i] = fitness(chrom[i])
	}
	tournament := func() []int {
		bi, bf := -1, math.Inf(1)
		for k := 0; k < 3; k++ {
			i := rng.Intn(pop)
			if fit[i] < bf {
				bi, bf = i, fit[i]
			}
		}
		return chrom[bi]
	}

	for gen := 0; gen < gens; gen++ {
		next := make([][]int, 0, pop)
		// Elitism: carry the best chromosome over unchanged.
		bestIdx := 0
		for i := 1; i < pop; i++ {
			if fit[i] < fit[bestIdx] {
				bestIdx = i
			}
		}
		next = append(next, append([]int(nil), chrom[bestIdx]...))
		for len(next) < pop {
			a, b := tournament(), tournament()
			child := make([]int, n)
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					child[j] = a[j]
				} else {
					child[j] = b[j]
				}
				if rng.Float64() < mut {
					child[j] = rng.Intn(m)
				}
			}
			next = append(next, child)
		}
		chrom = next
		for i := range chrom {
			fit[i] = fitness(chrom[i])
		}
	}

	bestIdx := 0
	for i := 1; i < pop; i++ {
		if fit[i] < fit[bestIdx] {
			bestIdx = i
		}
	}
	assign := make(map[string]int, n)
	for _, a := range w.Activations() {
		assign[a.ID] = chrom[bestIdx][a.Index]
	}
	g.plan.PlanName, g.plan.Assign = "GA", assign
	g.EstimatedMakespan = fit[bestIdx]
	return g.plan.Prepare(w, fleet, env)
}

// Pick implements sim.Scheduler by replaying the evolved plan.
func (g *GA) Pick(ctx *sim.Context) []sim.Assignment { return g.plan.Pick(ctx) }

// Assign returns the evolved activation→VM plan (valid after
// Prepare).
func (g *GA) Assign() map[string]int { return g.plan.Assign }

// listMakespan estimates the makespan of a fixed assignment by list
// scheduling in topological order: each task starts at the later of
// its parents' finishes and its VM's earliest free slot.
func listMakespan(order []*dag.Activation, genes []int, fleet *cloud.Fleet,
	est func(*dag.Activation, *cloud.VM) float64) float64 {
	finish := make([]float64, len(genes))
	// Earliest-free times per VM slot, kept sorted ascending.
	slots := make([][]float64, fleet.Len())
	for i, vm := range fleet.VMs {
		slots[i] = make([]float64, vm.Type.VCPUs)
	}
	var makespan float64
	for _, a := range order {
		vmID := genes[a.Index]
		vm := fleet.VMs[vmID]
		ready := 0.0
		for _, p := range a.Parents() {
			if finish[p.Index] > ready {
				ready = finish[p.Index]
			}
		}
		// Earliest slot on the VM.
		s := slots[vmID]
		idx := 0
		for i := 1; i < len(s); i++ {
			if s[i] < s[idx] {
				idx = i
			}
		}
		start := math.Max(ready, s[idx])
		end := start + est(a, vm)
		s[idx] = end
		finish[a.Index] = end
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}
