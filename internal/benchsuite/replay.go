package benchsuite

import (
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/randsrc"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// PlanReplay benchmarks the simulated replay of a submitted plan as
// schedd's planJob runs it: an engine from a sim.Pool, rebound
// alternately between two CyberShake-100 structures on the 32-vCPU
// Table I fleet, replaying each structure's HEFT plan through a new
// sched.Plan with Result.Plan skipped. The pool holds one engine, so
// every op is a Rebind to a same-shaped problem: allocs/op is what a
// job must build, not the engine's buffers.
func PlanReplay() func(*testing.B) {
	return func(b *testing.B) {
		fleet, err := cloud.FleetTable1(32)
		if err != nil {
			b.Fatal(err)
		}
		var ws [2]*dag.Workflow
		var assigns [2]map[string]int
		var want [2]float64
		for i := range ws {
			ws[i] = trace.CyberShake(rand.New(randsrc.New(int64(i)+1)), 100)
			h := &sched.HEFT{}
			if err := h.Prepare(ws[i], fleet, nil); err != nil {
				b.Fatal(err)
			}
			assigns[i] = h.Assign()
			res, err := sim.Run(ws[i], fleet, &sched.Plan{Assign: assigns[i]}, sim.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			want[i] = res.Makespan
		}
		pool := sim.NewPool()
		replay := func(i int) {
			eng, err := pool.Acquire(ws[i], fleet, &sched.Plan{PlanName: "submitted", Assign: assigns[i]},
				sim.Config{Seed: 1, SkipPlan: true})
			if err != nil {
				b.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Makespan != want[i] {
				b.Fatalf("structure %d: pooled replay makespan %v, fresh %v", i, res.Makespan, want[i])
			}
			pool.Put(eng)
		}
		replay(0)
		replay(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			replay(i & 1)
		}
	}
}
