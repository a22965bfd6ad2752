package core

import (
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// TestLearnerMapDenseEquivalence is the end-to-end backing contract:
// a Learner fed an explicit sparse table and one fed an explicit
// dense table — constructed from identical init seeds — must produce
// bit-identical episode trajectories and extracted plans, because
// both backings materialise random initial Q values lazily in access
// order.
func TestLearnerMapDenseEquivalence(t *testing.T) {
	w := montage50(t, 6)
	fl := fleet(t, 16)
	run := func(table *rl.Table) *Result {
		l := &Learner{Workflow: w, Fleet: fl, Params: DefaultParams(), Episodes: 10, Seed: 17, Table: table}
		res, err := l.Learn()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const initSeed = 23
	a := run(rl.NewTable(rand.New(rand.NewSource(initSeed)), 1.0))
	b := run(rl.NewDenseTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(initSeed)), 1.0))
	compareResults(t, "map", "dense", a, b)
}

// TestLearnerBandedEquivalence extends the backing contract to the
// banded table on a shape that genuinely spans several bands (300
// activations × 144 VMs, ~18 rows per 256 KiB band): map-, dense-
// and banded-backed Learners with identical init seeds must produce
// bit-identical trajectories, plans and learned tables. The map run
// bootstraps by scanning and the rectangle runs from the pending-max
// heap, so this is also that heap's end-to-end differential; a fourth
// run takes its engines from a pool that last served another problem
// (the daemon path), which must not show either.
func TestLearnerBandedEquivalence(t *testing.T) {
	w := trace.MontageN(rand.New(rand.NewSource(6)), 300)
	fl, err := cloud.FleetScaled(256)
	if err != nil {
		t.Fatal(err)
	}
	var pool *sim.Pool
	run := func(table *rl.Table) *Result {
		l := &Learner{Workflow: w, Fleet: fl, Params: DefaultParams(), Episodes: 5, Seed: 17, Table: table, enginePool: pool}
		res, err := l.Learn()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const initSeed = 23
	banded := rl.NewBandedTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(initSeed)), 1.0)
	if !banded.Banded() {
		t.Fatalf("%dx%d table is not banded", w.Len(), len(fl.VMs))
	}
	a := run(rl.NewTable(rand.New(rand.NewSource(initSeed)), 1.0))
	b := run(banded)
	c := run(rl.NewDenseTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(initSeed)), 1.0))
	compareResults(t, "map", "banded", a, b)
	compareResults(t, "dense", "banded", c, b)

	pool = sim.NewPool()
	other, err := pool.Acquire(montage50(t, 2), fleet(t, 16), sched.MCT{}, sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put(other)
	d := run(rl.NewBandedTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(initSeed)), 1.0))
	if reused, _ := pool.Stats(); reused == 0 {
		t.Fatal("the pooled run never rebound an engine")
	}
	compareResults(t, "pooled", "banded", d, b)
}

// compareResults asserts two learning runs are bit-identical:
// episode trajectories, extracted plan, and the learned table
// entry-for-entry.
func compareResults(t *testing.T, nameA, nameB string, a, b *Result) {
	t.Helper()
	for i := range a.Episodes {
		if a.Episodes[i].Makespan != b.Episodes[i].Makespan || a.Episodes[i].Reward != b.Episodes[i].Reward {
			t.Fatalf("episode %d diverges: %s (%v, %v) vs %s (%v, %v)", i,
				nameA, a.Episodes[i].Makespan, a.Episodes[i].Reward,
				nameB, b.Episodes[i].Makespan, b.Episodes[i].Reward)
		}
	}
	if a.PlanMakespan != b.PlanMakespan {
		t.Fatalf("plan makespans diverge: %v (%s) vs %v (%s)", a.PlanMakespan, nameA, b.PlanMakespan, nameB)
	}
	if a.Plan.Len() != b.Plan.Len() {
		t.Fatalf("plan sizes diverge: %d vs %d", a.Plan.Len(), b.Plan.Len())
	}
	for _, e := range a.Plan.Entries() {
		if vm, _ := b.Plan.VM(e.Activation); vm != e.VM {
			t.Fatalf("plans diverge at %s: %d (%s) vs %d (%s)", e.Activation, e.VM, nameA, vm, nameB)
		}
	}
	// The learned tables must agree entry-for-entry as well.
	sa, sb := a.Table.Snapshot(), b.Table.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("table sizes diverge: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("table entry %d diverges: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// BenchmarkTDHotPath measures one full learning episode — Pick,
// bootstrap, and TDUpdate on every completion — against each table
// backing. The dense sub-benchmark is the Learner's default
// configuration.
func BenchmarkTDHotPath(b *testing.B) {
	w := montage50(b, 6)
	fl := fleet(b, 16)
	fluct := cloud.DefaultFluctuation()
	run := func(b *testing.B, mk func(i int) *rl.Table) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			agent, err := NewScheduler(DefaultParams(), mk(i), rand.New(rand.NewSource(int64(i))))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(w, fl, agent, sim.Config{Seed: int64(i), Fluct: &fluct}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("map", func(b *testing.B) {
		run(b, func(i int) *rl.Table { return rl.NewTable(rand.New(rand.NewSource(int64(i))), 1.0) })
	})
	b.Run("dense", func(b *testing.B) {
		run(b, func(i int) *rl.Table {
			return rl.NewDenseTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(int64(i))), 1.0)
		})
	})
}
