package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/trace"
)

// TestRebindMatchesFresh drives one engine through a chain of
// different problems via Rebind and checks each run is bit-identical
// to a fresh engine's run of the same problem. The chain shrinks and
// grows (80 → 30 → 40 activations, 32 → 16 → 32 vCPUs), so kept
// backings are resliced both ways, and covers fluctuation and data
// transfer. The last case rebinds to a workflow
// with the same file names as the one before it, under another
// fluctuation seed so activations land elsewhere: file residency left
// over from that run would skip transfers and shorten the makespan.
func TestRebindMatchesFresh(t *testing.T) {
	fleet16, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	fleet32, err := cloud.FleetTable1(32)
	if err != nil {
		t.Fatal(err)
	}
	fm := cloud.DefaultFluctuation()
	montage := func(n int) *dag.Workflow { return trace.MontageN(rand.New(rand.NewSource(int64(n))), n) }
	cybershake := func() *dag.Workflow { return trace.CyberShake(rand.New(rand.NewSource(40)), 40) }
	cases := []struct {
		name  string
		w     *dag.Workflow
		fleet *cloud.Fleet
		cfg   Config
	}{
		{"montage80-32", montage(80), fleet32, Config{Seed: 7}},
		{"montage30-16-fluct", montage(30), fleet16, Config{Seed: 11, Fluct: &fm}},
		{"cybershake40-32-datatransfer", cybershake(), fleet32, Config{Seed: 3, Fluct: &fm, DataTransfer: true}},
		{"cybershake40-32-datatransfer-again", cybershake(), fleet32, Config{Seed: 4, Fluct: &fm, DataTransfer: true}},
	}

	var pooled *Engine
	for _, tc := range cases {
		fresh, err := Run(tc.w, tc.fleet, &greedyFirst{}, tc.cfg)
		if err != nil {
			t.Fatalf("%s: fresh: %v", tc.name, err)
		}
		want := cloneResult(fresh)

		// Same problem via the rebound engine; first iteration builds it.
		if pooled == nil {
			pooled, err = NewEngine(tc.w, tc.fleet, &greedyFirst{}, tc.cfg)
		} else {
			err = pooled.Rebind(tc.w, tc.fleet, &greedyFirst{}, tc.cfg)
		}
		if err != nil {
			t.Fatalf("%s: rebind: %v", tc.name, err)
		}
		got, err := pooled.Run()
		if err != nil {
			t.Fatalf("%s: pooled run: %v", tc.name, err)
		}
		t.Run(tc.name, func(t *testing.T) {
			requireEqualRuns(t, want, got)
			if got.Cost != want.Cost || got.BusyCost != want.BusyCost {
				t.Errorf("cost mismatch: (%v,%v) != (%v,%v)", got.Cost, got.BusyCost, want.Cost, want.BusyCost)
			}
		})
	}
}

// reuseFirst is greedyFirst without allocation: it walks the idle VMs
// in order with a running slot count and appends into a kept slice.
type reuseFirst struct{ out []Assignment }

func (*reuseFirst) Name() string                                    { return "reuse-first" }
func (*reuseFirst) Prepare(*dag.Workflow, *cloud.Fleet, *Env) error { return nil }

func (s *reuseFirst) Pick(ctx *Context) []Assignment {
	out := s.out[:0]
	vi, left := 0, ctx.IdleVMs[0].FreeSlots()
	for _, t := range ctx.Ready {
		for left == 0 {
			if vi++; vi == len(ctx.IdleVMs) {
				s.out = out
				return out
			}
			left = ctx.IdleVMs[vi].FreeSlots()
		}
		left--
		out = append(out, Assignment{Task: t, VM: ctx.IdleVMs[vi]})
	}
	s.out = out
	return out
}

// maxRebindAllocs bounds the allocations of one Rebind to a
// same-shaped problem plus its Run: the new Env is the one a pooled
// engine must make, and one more is allowed for runtime noise.
const maxRebindAllocs = 2

// TestRebindSameShapeAllocs holds a pooled engine to its promise: a
// Rebind to a problem no larger than the last one reallocates none of
// the task, VM, record or running backings (a 60-activation run on
// them is hundreds of allocations).
func TestRebindSameShapeAllocs(t *testing.T) {
	fleets := [2]*cloud.Fleet{}
	ws := [2]*dag.Workflow{}
	for i := range fleets {
		f, err := cloud.FleetTable1(16)
		if err != nil {
			t.Fatal(err)
		}
		fleets[i] = f
		ws[i] = trace.MontageN(rand.New(rand.NewSource(6)), 60)
	}
	s := &reuseFirst{}
	cfg := Config{Seed: 3, SkipPlan: true}
	eng, err := NewEngine(ws[0], fleets[0], s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	makespan := want.Makespan
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i ^= 1
		if err := eng.Rebind(ws[i], fleets[i], s, cfg); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != makespan {
			t.Fatalf("makespan %v after rebind, want %v", res.Makespan, makespan)
		}
	})
	if allocs > maxRebindAllocs {
		t.Fatalf("Rebind+Run of a same-shaped problem: %.0f allocations, want ≤ %d", allocs, maxRebindAllocs)
	}
}

// TestPoolConcurrentRebind has goroutines share one pool, each
// acquiring engines for problems of different sizes in turn, so a
// pooled engine is rebound across sizes by whichever goroutine takes
// it. Every run must equal a fresh run of its problem; under -race it
// also checks that a pooled engine shares no buffer between users.
func TestPoolConcurrentRebind(t *testing.T) {
	fleet16, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	fleet32, err := cloud.FleetTable1(32)
	if err != nil {
		t.Fatal(err)
	}
	probs := []struct {
		w     *dag.Workflow
		fleet *cloud.Fleet
		cfg   Config
	}{
		{trace.MontageN(rand.New(rand.NewSource(1)), 20), fleet16, Config{Seed: 1}},
		{trace.MontageN(rand.New(rand.NewSource(2)), 70), fleet32, Config{Seed: 2, DataTransfer: true}},
		{trace.CyberShake(rand.New(rand.NewSource(3)), 40), fleet16, Config{Seed: 3, DataTransfer: true}},
	}
	want := make([]float64, len(probs))
	for i, p := range probs {
		res, err := Run(p.w, p.fleet, &greedyFirst{}, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Makespan
	}
	pool := NewPool()
	const workers, rounds = 4, 12
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(probs)
				p := probs[i]
				eng, err := pool.Acquire(p.w, p.fleet, &greedyFirst{}, p.cfg)
				if err != nil {
					errs <- err
					return
				}
				res, err := eng.Run()
				if err == nil && res.Makespan != want[i] {
					err = fmt.Errorf("worker %d round %d: makespan %v, fresh %v", g, r, res.Makespan, want[i])
				}
				pool.Put(eng)
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if reused, _ := pool.Stats(); reused == 0 {
		t.Fatal("no engine was reused")
	}
}

// TestPoolAcquireReuses checks the pool rebinds pooled engines and
// counts reuse.
func TestPoolAcquireReuses(t *testing.T) {
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool()
	w1 := trace.MontageN(rand.New(rand.NewSource(1)), 20)
	w2 := trace.MontageN(rand.New(rand.NewSource(2)), 35)

	e1, err := p.Acquire(w1, fleet, &greedyFirst{}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	p.Put(e1)

	e2, err := p.Acquire(w2, fleet, &greedyFirst{}, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e1 {
		t.Fatalf("expected pooled engine to be reused")
	}
	if _, err := e2.Run(); err != nil {
		t.Fatalf("rebound run: %v", err)
	}
	reused, fresh := p.Stats()
	if reused != 1 || fresh != 1 {
		t.Fatalf("stats reused=%d fresh=%d, want 1/1", reused, fresh)
	}
}
