package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/des"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// oracle is the cross-check behind the incremental TD path: at every
// Q-learning bootstrap the value entering the TD target must equal,
// bit for bit, a brute-force maximum over every pending activation ×
// every VM of the env. It reads with Peek, so it neither draws from
// the table's rng nor leans on the row caches the heap is built from —
// and it fails if a bootstrap left any of those cells unmaterialised,
// which is how a skipped lazy draw would show. The per-VM performance
// indices behind the reward's standard deviation are held to the same
// standard against a full recomputation.
type oracle struct {
	t     *testing.T
	agent *Scheduler
	// checks counts bootstraps seen; heapLive those answered while the
	// heap stood (the scan that builds it included).
	checks, heapLive int
}

func (o *oracle) check(next float64, env *sim.Env) {
	o.t.Helper()
	s := o.agent
	o.checks++
	if s.pmax.built {
		o.heapLive++
	}
	perf := AppendPerfIndices(nil, env.VMStates(), s.params.Mu)
	if len(perf) != len(s.perfBuf) {
		o.t.Fatalf("completion %d: %d cached performance indices, recomputation has %d", o.checks, len(s.perfBuf), len(perf))
	}
	for i := range perf {
		if math.Float64bits(perf[i]) != math.Float64bits(s.perfBuf[i]) {
			o.t.Fatalf("completion %d: cached performance index %d = %v, recomputed %v", o.checks, i, s.perfBuf[i], perf[i])
		}
	}
	want := 0.0
	if s.npending > 0 {
		want = math.Inf(-1)
		for task, pending := range s.pending {
			if !pending {
				continue
			}
			for _, v := range env.VMStates() {
				q, ok := s.table.Peek(rl.Key{Task: task, VM: v.VM.ID})
				if !ok {
					o.t.Fatalf("bootstrap %d left Q(%d, %d) unmaterialised", o.checks, task, v.VM.ID)
				}
				if q > want {
					want = q
				}
			}
		}
	}
	if math.Float64bits(next) != math.Float64bits(want) {
		o.t.Fatalf("bootstrap %d (heap built: %v, %d pending): got %v, reference scan %v",
			o.checks, s.pmax.built, s.npending, next, want)
	}
}

// engineMode is how a run obtains its simulation engine per episode.
type engineMode int

const (
	resetEngine   engineMode = iota // one engine, Reset between episodes
	freshEngine                     // a new engine every episode
	reboundEngine                   // a pooled engine that last ran another problem
)

// run is one seeded multi-episode learning run driven by hand, so the
// agent is reachable for the oracle.
type run struct {
	w       *dag.Workflow
	fleet   *cloud.Fleet
	table   *rl.Table
	params  Params
	cfgs    []sim.Config // cycled per episode
	mode    engineMode
	checked bool

	agent   *Scheduler
	oracle  *oracle
	states  []sim.WorkflowState
	aborted int // episodes stopped at their Config.Horizon
}

func (r *run) learn(t *testing.T, episodes int) {
	t.Helper()
	agent, err := NewScheduler(r.params, r.table, rand.New(rand.NewSource(0)))
	if err != nil {
		t.Fatal(err)
	}
	if r.params.Rule == DoubleQ {
		agent.WithSecondTable(rl.NewTable(r.w.Len(), len(r.fleet.VMs), rand.New(rand.NewSource(77)), 1.0))
	}
	r.agent = agent
	if r.checked {
		r.oracle = &oracle{t: t, agent: agent}
		agent.checkNext = r.oracle.check
	}
	var pool *sim.Pool
	if r.mode == reboundEngine {
		pool = sim.NewPool()
	}
	var eng *sim.Engine
	for ep := 0; ep < episodes; ep++ {
		if err := agent.reset(r.params, int64(1000+ep)); err != nil {
			t.Fatal(err)
		}
		cfg := r.cfgs[ep%len(r.cfgs)]
		cfg.Seed = int64(2000 + ep)
		cfg.SkipPlan = true
		switch {
		case r.mode == reboundEngine:
			// Dirty the pooled engine with another problem first.
			other, err := pool.Acquire(trace.MontageN(rand.New(rand.NewSource(9)), 30), fleet(t, 32), &sched.MCT{}, sim.Config{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := other.Run(); err != nil {
				t.Fatal(err)
			}
			pool.Put(other)
			eng, err = pool.Acquire(r.w, r.fleet, agent, cfg)
			if err != nil {
				t.Fatal(err)
			}
		case r.mode == freshEngine || eng == nil:
			eng, err = sim.NewEngine(r.w, r.fleet, agent, cfg)
		default:
			eng.Reset(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if cfg.Horizon > 0 && errors.Is(err, des.ErrHorizon) {
			// The episode stopped mid-DAG: rows stay pending and TD
			// writes stay buffered until the next Prepare.
			r.aborted++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		r.states = append(r.states, res.State)
		if pool != nil {
			pool.Put(eng)
		}
	}
	agent.FlushTD()
}

func sameTable(t *testing.T, what string, a, b *rl.Table) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("%s: table sizes diverge: %d vs %d", what, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Key != sb[i].Key || math.Float64bits(sa[i].Value) != math.Float64bits(sb[i].Value) {
			t.Fatalf("%s: table entry %d diverges: %+v vs %+v", what, i, sa[i], sb[i])
		}
	}
}

// learned returns a table after a few episodes of Montage-50 on the
// 9-VM fleet: the warm starting points of the grid.
func learned(t *testing.T, w *dag.Workflow, fl *cloud.Fleet, seed int64) *rl.Table {
	t.Helper()
	r := &run{w: w, fleet: fl, params: DefaultParams(), cfgs: []sim.Config{{}},
		table: rl.NewTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(seed)), 1.0)}
	r.learn(t, 4)
	return r.table
}

// TestIncrementalBootstrapMatchesScan drives the oracle over the
// shapes the heap has to get right, and the ones it has to refuse.
func TestIncrementalBootstrapMatchesScan(t *testing.T) {
	w := montage50(t, 6)
	fl := fleet(t, 16)
	nv := len(fl.VMs)
	fluct := cloud.DefaultFluctuation()
	fresh := func(seed int64, span float64) func() *rl.Table {
		return func() *rl.Table { return rl.NewTable(w.Len(), nv, rand.New(rand.NewSource(seed)), span) }
	}

	big := trace.MontageN(rand.New(rand.NewSource(6)), 300)
	bigFleet, err := cloud.FleetScaled(256)
	if err != nil {
		t.Fatal(err)
	}
	// The horizon falls mid-DAG: the heap is standing when the episode
	// aborts with most rows pending.
	abort := sim.Config{Horizon: 150}

	multi := cloud.MustFleet("multi", []cloud.VMType{cloud.T2Large, cloud.T22XLarge}, []int{2, 1})
	multiTable := func() *rl.Table { return rl.NewTable(w.Len(), 3, rand.New(rand.NewSource(23)), 1.0) }

	const (
		always = iota // every bootstrap is answered with the heap standing
		never         // the heap must never be built
	)
	cases := []struct {
		name  string
		w     *dag.Workflow
		fleet *cloud.Fleet
		table func() *rl.Table
		// twin adds a run on the scan-only path: a table of the same seed
		// one column wider than the fleet, so the heap is off while the
		// fleet keeps its size.
		twin     bool
		cfgs     []sim.Config
		episodes int
		heap     int
	}{
		{name: "cold-dense", w: w, fleet: fl, table: fresh(23, 1), twin: true,
			cfgs: []sim.Config{{Fluct: &fluct}}, episodes: 5, heap: always},
		{name: "cold-banded", w: big, fleet: bigFleet, episodes: 2, heap: always,
			table: func() *rl.Table {
				return rl.NewTable(big.Len(), len(bigFleet.VMs), rand.New(rand.NewSource(23)), 1.0)
			},
			cfgs: []sim.Config{{}}},
		{name: "warm-copy", w: w, fleet: fl, episodes: 4, heap: always,
			table: func() *rl.Table { return learned(t, w, fl, 3).Copy(rand.New(rand.NewSource(4))) },
			cfgs:  []sim.Config{{Fluct: &fluct}}},
		{name: "averaged", w: w, fleet: fl, episodes: 4, heap: always,
			table: func() *rl.Table {
				return rl.Average(rand.New(rand.NewSource(4)), learned(t, w, fl, 3), learned(t, w, fl, 5))
			},
			cfgs: []sim.Config{{}}},
		{name: "aborted-then-prepare", w: w, fleet: fl, table: fresh(23, 1), twin: true, episodes: 5, heap: always,
			cfgs: []sim.Config{{}, abort}},
		{name: "multi-vcpu", w: w, fleet: multi, table: multiTable, twin: true, episodes: 4, heap: always,
			cfgs: []sim.Config{{Fluct: &fluct}}},
		{name: "table-wider-than-fleet", w: w, fleet: fl, episodes: 3, heap: never,
			table: func() *rl.Table { return rl.NewTable(w.Len(), nv+3, rand.New(rand.NewSource(23)), 1.0) },
			twin:  true, cfgs: []sim.Config{{}}},
		{name: "table-shorter-than-workflow", w: w, fleet: fl, episodes: 3, heap: never,
			table: func() *rl.Table { return rl.NewTable(w.Len()-5, nv, rand.New(rand.NewSource(23)), 1.0) },
			twin:  true, cfgs: []sim.Config{{}}},
		{name: "all-ties", w: w, fleet: fl, table: fresh(23, 0), episodes: 4, heap: always, cfgs: []sim.Config{{}}},
		// One episode: a TD update of a −Inf cell stores NaN at the flush.
		{name: "neg-inf-rows", w: w, fleet: fl, episodes: 1, heap: always, cfgs: []sim.Config{{}},
			table: func() *rl.Table {
				tab := fresh(23, 1)()
				for task := w.Len() / 2; task < w.Len(); task++ {
					for vm := 0; vm < nv; vm++ {
						tab.Set(rl.Key{Task: task, VM: vm}, math.Inf(-1))
					}
				}
				return tab
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &run{w: tc.w, fleet: tc.fleet, table: tc.table(), params: DefaultParams(), cfgs: tc.cfgs, checked: true}
			r.learn(t, tc.episodes)
			o := r.oracle
			if o.checks == 0 {
				t.Fatal("the oracle never ran")
			}
			switch tc.heap {
			case always:
				if o.heapLive != o.checks {
					t.Errorf("heap stood for %d of %d bootstraps, want all", o.heapLive, o.checks)
				}
			case never:
				if o.heapLive != 0 {
					t.Errorf("heap stood for %d bootstraps on a fleet/table it cannot cover", o.heapLive)
				}
			}
			if len(tc.cfgs) > 1 && (r.aborted == 0 || len(r.states) == 0) {
				t.Fatalf("%d aborted and %d completed episodes: want both", r.aborted, len(r.states))
			}
			if tc.twin {
				wide := rl.NewTable(tc.w.Len(), len(tc.fleet.VMs)+1, rand.New(rand.NewSource(23)), 1.0)
				ref := &run{w: tc.w, fleet: tc.fleet, table: wide, params: DefaultParams(), cfgs: tc.cfgs}
				ref.learn(t, tc.episodes)
				sameTable(t, "fleet-wide vs one column wider (scan-only)", r.table, ref.table)
			}
		})
	}
}

// TestOtherRulesKeepEnumerating pins the scope of the heap: SARSA,
// DoubleQ and the AvailableOnly ablation bootstrap over other sets.
func TestOtherRulesKeepEnumerating(t *testing.T) {
	w := montage50(t, 6)
	fl := fleet(t, 16)
	for name, mod := range map[string]func(*Params){
		"sarsa":          func(p *Params) { p.Rule = SARSA },
		"doubleq":        func(p *Params) { p.Rule = DoubleQ },
		"available-only": func(p *Params) { p.Scope = AvailableOnly },
	} {
		t.Run(name, func(t *testing.T) {
			p := DefaultParams()
			mod(&p)
			r := &run{w: w, fleet: fl, params: p, cfgs: []sim.Config{{}},
				table: rl.NewTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(23)), 1.0)}
			r.learn(t, 2)
			if r.agent.pmax.built || len(r.agent.pmax.heap) != 0 {
				t.Fatalf("%s built the pending-max heap", name)
			}
		})
	}
}

// TestEngineModesLearnIdenticalTables extends the fresh-vs-reset
// contract to the learner with the heap on: whether each episode gets
// a fresh engine, a Reset one, or a pooled engine rebound from another
// problem, the learned table is the same.
func TestEngineModesLearnIdenticalTables(t *testing.T) {
	w := montage50(t, 6)
	fl := fleet(t, 16)
	fluct := cloud.DefaultFluctuation()
	cfgs := []sim.Config{{Fluct: &fluct}}
	learn := func(mode engineMode) *rl.Table {
		r := &run{w: w, fleet: fl, params: DefaultParams(), cfgs: cfgs, mode: mode, checked: true,
			table: rl.NewTable(w.Len(), len(fl.VMs), rand.New(rand.NewSource(23)), 1.0)}
		r.learn(t, 5)
		return r.table
	}
	reset := learn(resetEngine)
	sameTable(t, "reset vs fresh", reset, learn(freshEngine))
	sameTable(t, "reset vs rebound", reset, learn(reboundEngine))
}

// TestLearnRejectsGappedFleet: a fleet whose VM IDs are not 0..n-1
// (here {0, 1, 3, 4}) is refused before the first episode, by a fresh
// engine and by a pooled one alike, so the learner never runs with a
// VM ID that is not its index.
func TestLearnRejectsGappedFleet(t *testing.T) {
	w := montage50(t, 6)
	gapped := &cloud.Fleet{Name: "gapped", VMs: []*cloud.VM{
		{ID: 0, Type: cloud.T2Large}, {ID: 1, Type: cloud.T2Large},
		{ID: 3, Type: cloud.T2Large}, {ID: 4, Type: cloud.T2Large},
	}}
	pool := sim.NewPool()
	// Leave a healthy engine in the pool, so the pooled path rebinds.
	eng, err := pool.Acquire(w, fleet(t, 16), &sched.MCT{}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(eng)
	for name, opts := range map[string][]Option{
		"fresh":  nil,
		"pooled": {WithEnginePool(pool)},
	} {
		l, err := NewLearner(Config{Workflow: w, Fleet: gapped, Episodes: 2}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Learn(); err == nil {
			t.Errorf("%s: learning on VM IDs {0, 1, 3, 4} succeeded", name)
		}
	}
}
