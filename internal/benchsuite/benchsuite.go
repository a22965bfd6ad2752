// Package benchsuite defines the repository's governed benchmark
// suite — the set of benchmarks recorded in BENCH_core.json and gated
// in CI — in one place, so the writer (cmd/benchjson), the gate
// (cmd/benchguard) and the `go test -bench` entry points (bench_test.go)
// cannot drift apart.
package benchsuite

import (
	"math/rand"
	"testing"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/loadgen"
	"reassign/internal/randsrc"
	"reassign/internal/rl"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
	"reassign/internal/trace"
)

// Entry is one benchmark's recorded trajectory point, the JSON value
// of BENCH_core.json. Extra carries b.ReportMetric units (e.g. the
// learning benches' "ep/s" and "act-ep/s" throughput).
type Entry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Iterations  int                `json:"iterations"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Record converts a testing.BenchmarkResult into an Entry.
func Record(r testing.BenchmarkResult) Entry {
	e := Entry{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
	if len(r.Extra) > 0 {
		e.Extra = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			e.Extra[k] = v
		}
	}
	return e
}

// Bench is one governed benchmark: the BENCH_core.json key and the
// function behind it.
type Bench struct {
	Name string
	Fn   func(*testing.B)
}

// Suite returns the governed benchmarks in a stable order: the
// Q-table micro-benchmark, the TD hot path, the headline 100-episode
// learning run (bare, and with the daemon's Aggregator sink), the
// replica-scaling ladder, the large-DAG tier
// (1000- and 10k-activation workflows on 256- and 1024-vCPU fleets),
// the exec wire-path tier (a wide 1000-activation plan over InProc
// and loopback TCP), the
// open-system tier (a seeded multi-tenant trace replayed through
// every policy lane at 3 and 6 tenants), the spot-market tier
// (trace-bill integration and a full replay under a hostile trace),
// the provenance store (one 100-activation run recorded), the
// service-decode and service-encode tiers, the seeded source (one
// episode's reseed and draws, and a long stream) and the plan replay
// (a pooled engine rebound between two CyberShake-100 structures).
func Suite() []Bench {
	return []Bench{
		{"BenchmarkQTableDense", QTable(50, 16)},
		{"BenchmarkTDHotPath/dense", TDHotPath},
		{"BenchmarkLearning100Episodes", Learning100},
		{"BenchmarkLearning100Episodes/aggregator", learning100Aggregator},
		{"BenchmarkLearningReplicas/1", LearningReplicas(1)},
		{"BenchmarkLearningReplicas/4", LearningReplicas(4)},
		{"BenchmarkLearningReplicas/8", LearningReplicas(8)},
		{"BenchmarkLearningLarge/1000x256", LearningLarge(1000, 256, 100)},
		{"BenchmarkLearningLarge/10000x1024", LearningLarge(10000, 1024, 5)},
		{"BenchmarkExecThroughput/inproc-1000x64", ExecInProc(1000, 64)},
		{"BenchmarkExecThroughput/tcp-bin-1000x64", ExecTCP(1000, 64)},
		{"BenchmarkExecThroughput/tcp-bin-1000x256", ExecTCP(1000, 256)},
		{"BenchmarkOpenSystem/3tenants", OpenSystem(3)},
		{"BenchmarkOpenSystem/6tenants", OpenSystem(6)},
		{"BenchmarkMarketPlayback/cost", MarketCost()},
		{"BenchmarkMarketPlayback/exec-200x16", MarketExec(200)},
		{"BenchmarkProvenanceStore", ProvenanceStore(100)},
		{"BenchmarkServiceDecode/submit-cybershake100", DecodeSubmit("svc-replay-market.submit.json")},
		{"BenchmarkServiceDecode/submit-montage50-dax", DecodeSubmit("svc-warm.submit.json")},
		{"BenchmarkServiceDecode/status-executed", DecodeStatus("svc-replay-market.status.json")},
		{"BenchmarkServiceEncode/status-executed", EncodeStatus("svc-replay-market.status.json")},
		{"BenchmarkSeededSource/episode-95", SeededSource(95)},
		{"BenchmarkSeededSource/full-2000", SeededSource(2000)},
		{"BenchmarkPlanReplay/cybershake100-pooled", PlanReplay()},
	}
}

// seededSum keeps SeededSource's draws live.
var seededSum uint64

// SeededSource re-seeds one randsrc source and draws n values per op,
// as the agent does once per episode: 95 is about a Montage-50
// episode's draws, computed without the state array, and 2000 runs
// well past the 334th draw, after which every state word has been
// computed and no draw computes one. The state is allocated by the
// first op that draws past the 273rd value and kept by the rest.
func SeededSource(n int) func(*testing.B) {
	return func(b *testing.B) {
		src := randsrc.New(0)
		sum := src.Uint64()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
			for j := 0; j < n; j++ {
				sum += src.Uint64()
			}
		}
		seededSum = sum
	}
}

// reportThroughput attaches the learning-rate metrics that gate real
// deployments: episodes/sec, and episodes/sec × workflow size as the
// headline "act-ep/s" (a fleet-independent measure of how much DAG
// the learner chews through per second). episodesPerOp counts every
// episode one benchmark op runs, across all replicas, so the replica
// ladder reports aggregate (parallel) throughput rather than the
// per-replica wall clock.
func reportThroughput(b *testing.B, acts, episodesPerOp int) {
	secs := b.Elapsed().Seconds()
	if secs <= 0 {
		return
	}
	eps := float64(b.N) * float64(episodesPerOp) / secs
	b.ReportMetric(eps, "ep/s")
	b.ReportMetric(eps*float64(acts), "act-ep/s")
}

// QTable benchmarks a MaxRect + TDUpdate + Best round per op on a
// numTasks×numVMs table.
func QTable(numTasks, numVMs int) func(*testing.B) {
	return func(b *testing.B) {
		vms := make([]int, numVMs)
		for i := range vms {
			vms[i] = i
		}
		tasks := make([]int, numTasks)
		for i := range tasks {
			tasks[i] = i
		}
		tab := rl.NewTable(numTasks, numVMs, rand.New(randsrc.New(1)), 1.0)
		rng := rand.New(randsrc.New(42))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := rl.Key{Task: rng.Intn(numTasks), VM: rng.Intn(numVMs)}
			next := tab.MaxRect(tasks, vms)
			tab.TDUpdate(k, 0.5, 1.0, 0.9, next)
			tab.Best(k.Task, vms)
		}
	}
}

// TDHotPath runs one full learning episode per op.
func TDHotPath(b *testing.B) {
	w := trace.Montage50(rand.New(randsrc.New(6)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		b.Fatal(err)
	}
	fluct := cloud.DefaultFluctuation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := rl.NewTable(w.Len(), len(fleet.VMs), rand.New(randsrc.New(int64(i))), 1.0)
		agent, err := core.NewScheduler(core.DefaultParams(), tab, rand.New(randsrc.New(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(w, fleet, agent, sim.Config{Seed: int64(i), Fluct: &fluct}); err != nil {
			b.Fatal(err)
		}
	}
}

// Learning100 is the headline trajectory benchmark: one full
// 100-episode ReASSIgN learning run (Montage 50, 16-vCPU fleet) per
// op, telemetry disabled (the zero-cost default).
func Learning100(b *testing.B) { learning100(b, nil) }

// learning100Aggregator is Learning100 instrumented as the schedd
// daemon instruments every learning job: with one long-lived
// Aggregator as the sink, its episode windows already full, so an op
// pays for the telemetry and not for the windows' first growth.
func learning100Aggregator(b *testing.B) {
	agg := telemetry.NewAggregator()
	for i := 0; i < 1<<16; i++ { // the Aggregator's episode window
		agg.Emit(telemetry.EpisodeEvent{Episode: i})
	}
	learning100(b, agg)
}

func learning100(b *testing.B, sink telemetry.Sink) {
	w := trace.Montage50(rand.New(randsrc.New(1)))
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		b.Fatal(err)
	}
	fluct := cloud.DefaultFluctuation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := core.NewLearner(core.Config{
			Workflow: w, Fleet: fleet,
			Params: core.DefaultParams(), Episodes: 100,
			Sim: sim.Config{Fluct: &fluct},
		}, core.WithSeed(int64(i)), core.WithSink(sink))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.Learn(); err != nil {
			b.Fatal(err)
		}
	}
	reportThroughput(b, w.Len(), 100)
}

// LearningLarge returns the extreme-scale tier benchmark: one
// learning run of `episodes` episodes per op on a MontageN workflow
// of `acts` activations over a FleetScaled fleet of `vcpus` vCPUs.
// This is the regime the banded Q-table, the batched TD path and the
// lazy EstimateExec memo exist for; episodes/sec and act-ep/s are
// the metrics to watch, and sim-ev/s, the simulator's steps/s, says
// how fast the DES path under them runs.
func LearningLarge(acts, vcpus, episodes int) func(*testing.B) {
	return func(b *testing.B) {
		w := trace.MontageN(rand.New(randsrc.New(1)), acts)
		fleet, err := cloud.FleetScaled(vcpus)
		if err != nil {
			b.Fatal(err)
		}
		fluct := cloud.DefaultFluctuation()
		learn := func(seed int64, opts ...core.Option) {
			l, err := core.NewLearner(core.Config{
				Workflow: w, Fleet: fleet,
				Params: core.DefaultParams(), Episodes: episodes,
				Sim: sim.Config{Fluct: &fluct},
			}, append(opts, core.WithSeed(seed))...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := l.Learn(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			learn(int64(i))
		}
		reportThroughput(b, acts, episodes)
		// A sink would slow the timed runs, so the DES events are
		// counted by repeating them untimed with one: an instrumented
		// run schedules identically, so the count is the timed runs'.
		b.StopTimer()
		var c kernelEvents
		for i := 0; i < b.N; i++ {
			learn(int64(i), core.WithSink(&c))
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(c.n)/secs, "sim-ev/s")
		}
	}
}

// kernelEvents sums the DES events of the runs it hears of.
type kernelEvents struct{ n int64 }

func (k *kernelEvents) Emit(e telemetry.Event) {
	if ke, ok := e.(*telemetry.KernelEvent); ok {
		k.n += ke.Events
	}
}

// LearningReplicas benchmarks the replica ensemble: k concurrent
// 100-episode learners per op on the Learning100 workload. On a
// k-core machine the wall clock should stay near the single-replica
// time (k× the learning throughput); on fewer cores it degrades
// toward k× the single time, with the outcome bit-identical either
// way.
func LearningReplicas(k int) func(*testing.B) {
	return func(b *testing.B) {
		w := trace.Montage50(rand.New(randsrc.New(1)))
		fleet, err := cloud.FleetTable1(16)
		if err != nil {
			b.Fatal(err)
		}
		fluct := cloud.DefaultFluctuation()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l, err := core.NewLearner(core.Config{
				Workflow: w, Fleet: fleet,
				Params: core.DefaultParams(), Episodes: 100,
				Sim: sim.Config{Fluct: &fluct},
			}, core.WithSeed(int64(i)), core.WithReplicas(k))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := l.LearnReplicas(); err != nil {
				b.Fatal(err)
			}
		}
		// k replicas run 100 episodes each per op, so ep/s here is the
		// ensemble's aggregate throughput — near-flat total ns/op with
		// rising ep/s is what parallel speedup looks like.
		reportThroughput(b, w.Len(), k*100)
	}
}

// OpenSystem returns the open-system throughput tier: one op
// generates nothing (the trace is fixed up front) and replays the
// same seeded multi-tenant arrival trace through every policy lane —
// learned warm-table ReASSIgN, HEFT, greedy immediate, and EDF
// admission. The extra metric is lane-jobs served per second of wall
// time, the open-system regime BENCH_core.json tracks.
func OpenSystem(tenants int) func(*testing.B) {
	return func(b *testing.B) {
		tr, err := loadgen.Generate(loadgen.TraceConfig{
			Seed:    1,
			Horizon: 400,
			Tenants: loadgen.DefaultTenants(tenants, 0.02, 30),
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := loadgen.LaneConfig{
			Fleet:    api.FleetSpec{Preset: "table1", VCPUs: 16},
			Slots:    2,
			Episodes: 8,
		}
		laneJobs := len(tr.Arrivals) * len(loadgen.AllPolicies())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := loadgen.RunLanes(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(laneJobs*b.N)/b.Elapsed().Seconds(), "job/s")
	}
}
