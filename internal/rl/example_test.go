package rl_test

import (
	"fmt"
	"math/rand"

	"reassign/internal/rl"
)

// Example trains a Q table on a two-armed bandit with the TD update
// and reads back the greedy choice.
func Example() {
	table := rl.NewTable(1, 2, rand.New(rand.NewSource(1)), 0) // 1 task × 2 VMs
	task := 0
	for i := 0; i < 200; i++ {
		table.TDUpdate(rl.Key{Task: task, VM: 0}, 0.5, -1, 0, 0) // slow VM
		table.TDUpdate(rl.Key{Task: task, VM: 1}, 0.5, +1, 0, 0) // fast VM
	}
	vm, value := table.Best(task, []int{0, 1})
	fmt.Printf("greedy VM: %d (Q=%.2f)\n", vm, value)
	// Output:
	// greedy VM: 1 (Q=1.00)
}

// ExampleEpsilonGreedy demonstrates the paper's inverted ε
// convention: with probability ε the agent EXPLOITS.
func ExampleEpsilonGreedy() {
	table := rl.NewTable(1, 4, rand.New(rand.NewSource(1)), 0)
	table.Set(rl.Key{Task: 0, VM: 3}, 10) // clearly best

	alwaysExploit := rl.EpsilonGreedy{Epsilon: 1.0} // paper convention
	rng := rand.New(rand.NewSource(2))
	fmt.Println("chosen:", alwaysExploit.Select(table, 0, []int{1, 2, 3}, rng))
	// Output:
	// chosen: 3
}
