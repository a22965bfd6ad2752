// Package reassign's top-level benchmarks regenerate every table of
// the paper's evaluation (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1 — Table I, the VM fleet configurations
//	BenchmarkTable2 — Table II, ReASSIgN learning time per (α, γ, ε)
//	BenchmarkTable3 — Table III, simulated makespan of learned plans
//	BenchmarkTable4 — Table IV, plans executed on the exec master
//	BenchmarkTable5 — Table V, activation→VM plans at 16 vCPUs
//
// plus ablation benches for the design choices DESIGN.md §5 calls
// out. Figure 1 is an architecture diagram with no data series; the
// module layout mirrors it (see README.md).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each bench prints its table once (on the first iteration) so a
// bench run doubles as a results report; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package main

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"reassign/internal/benchsuite"
	"reassign/internal/expt"
	"reassign/internal/metrics"
)

// benchOpts is the shared configuration for the table benches: the
// paper's episode budget on the paper's workload.
func benchOpts() expt.Options {
	return expt.Options{Seed: 1, Episodes: 100}
}

// printOnce guards each table's one-time printing across -count runs.
var printOnce sync.Map

func report(b *testing.B, key string, t *metrics.Table) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", t.String())
	}
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		t = expt.Table1()
	}
	report(b, "table1", t)
}

// sweepCache shares the expensive 27×3 sweep between the Table II and
// Table III benches (they report two views of the same experiment).
var (
	sweepOnce   sync.Once
	sweepResult *expt.SweepResult
	sweepErr    error
)

func sweep() (*expt.SweepResult, error) {
	sweepOnce.Do(func() {
		sweepResult, sweepErr = expt.RunSweep(benchOpts())
	})
	return sweepResult, sweepErr
}

func BenchmarkTable2(b *testing.B) {
	s, err := sweep()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		t = expt.Table2(s)
	}
	report(b, "table2", t)
}

func BenchmarkTable3(b *testing.B) {
	s, err := sweep()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		t = expt.Table3(s)
	}
	report(b, "table3", t)
}

// BenchmarkLearning100Episodes measures the underlying cost Table II
// reports: one full ReASSIgN learning run (100 episodes, Montage 50)
// on the 16-vCPU fleet. It delegates to the governed suite so the
// `go test -bench` entry point and BENCH_core.json measure the same
// code.
func BenchmarkLearning100Episodes(b *testing.B) {
	benchsuite.Learning100(b)
}

// BenchmarkLearningLarge is the extreme-scale tier: MontageN
// workflows on block-scaled fleets (1000 activations × 256 vCPUs at
// the paper's 100-episode budget, 10k × 1024 at a 5-episode smoke
// budget). Episodes/sec and act-ep/s are the headline metrics;
// sim-ev/s is the simulator's DES events per second under them.
func BenchmarkLearningLarge(b *testing.B) {
	b.Run("1000x256", benchsuite.LearningLarge(1000, 256, 100))
	b.Run("10000x1024", benchsuite.LearningLarge(10000, 1024, 5))
}

// BenchmarkExecThroughput is the execution-stage wire-path tier: a
// wide 1000-activation plan driven through the master over InProc
// (the no-wire ceiling) and over loopback TCP at 64- and 256-worker
// pools. Headline metrics
// are tasks/s and, on the TCP variants, wire B/task.
func BenchmarkExecThroughput(b *testing.B) {
	b.Run("inproc-1000x64", benchsuite.ExecInProc(1000, 64))
	b.Run("tcp-bin-1000x64", benchsuite.ExecTCP(1000, 64))
	b.Run("tcp-bin-1000x256", benchsuite.ExecTCP(1000, 256))
}

// BenchmarkLearningReplicas measures replica-parallel learning: K
// concurrent 100-episode learners per op on the same workload as
// BenchmarkLearning100Episodes. The ensemble's results are
// bit-identical for any GOMAXPROCS; only the wall clock scales.
func BenchmarkLearningReplicas(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(strconv.Itoa(k), benchsuite.LearningReplicas(k))
	}
}

func BenchmarkTable4(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunTable4(o)
		if err != nil {
			b.Fatal(err)
		}
		t = expt.Table4(rows)
	}
	report(b, "table4", t)
}

func BenchmarkTable5(b *testing.B) {
	o := benchOpts()
	b.ReportAllocs()
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = expt.Table5(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	share, err := expt.Table5BigVMShare(o)
	if err != nil {
		b.Fatal(err)
	}
	report(b, "table5", t)
	if _, loaded := printOnce.LoadOrStore("table5share", true); !loaded {
		b.Logf("t2.2xlarge placement share: HEFT=%.2f C1=%.2f C2=%.2f C3=%.2f",
			share["HEFT"], share["C1"], share["C2"], share["C3"])
	}
}

// Ablation benches: smaller episode budgets keep them minutes-scale
// while preserving the comparisons (DESIGN.md §5).

func ablationOpts() expt.Options {
	return expt.Options{Seed: 1, Episodes: 50}
}

func runAblation(b *testing.B, key string, fn func(expt.Options) (*metrics.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	var t *metrics.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = fn(ablationOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, key, t)
}

func BenchmarkAblationRho(b *testing.B)      { runAblation(b, "rho", expt.AblationRho) }
func BenchmarkAblationMu(b *testing.B)       { runAblation(b, "mu", expt.AblationMu) }
func BenchmarkAblationPolicy(b *testing.B)   { runAblation(b, "policy", expt.AblationPolicy) }
func BenchmarkAblationEpisodes(b *testing.B) { runAblation(b, "episodes", expt.AblationEpisodes) }
func BenchmarkAblationRule(b *testing.B)     { runAblation(b, "rule", expt.AblationRule) }
func BenchmarkAblationDiscount(b *testing.B) { runAblation(b, "discount", expt.AblationDiscount) }
func BenchmarkAblationBootstrap(b *testing.B) {
	runAblation(b, "bootstrap", expt.AblationBootstrap)
}
func BenchmarkAblationClustering(b *testing.B) {
	runAblation(b, "clustering", expt.AblationClustering)
}

// BenchmarkBaselines runs the wider scheduler comparison on each
// Table I fleet.
func BenchmarkBaselines(b *testing.B) {
	for _, vcpus := range []int{16, 32, 64} {
		vcpus := vcpus
		b.Run(fmt.Sprintf("%dvcpu", vcpus), func(b *testing.B) {
			b.ReportAllocs()
			var t *metrics.Table
			for i := 0; i < b.N; i++ {
				var err error
				t, err = expt.BaselineComparison(ablationOpts(), vcpus)
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, fmt.Sprintf("baselines%d", vcpus), t)
		})
	}
}

// BenchmarkOpenSystem is the open-system throughput tier: a fixed
// seeded multi-tenant arrival trace replayed through every policy
// lane (learned warm-table ReASSIgN, HEFT, greedy, EDF) at 3 and 6
// tenants. The headline metric is lane-jobs served per wall second.
func BenchmarkOpenSystem(b *testing.B) {
	b.Run("3tenants", benchsuite.OpenSystem(3))
	b.Run("6tenants", benchsuite.OpenSystem(6))
}

// BenchmarkMarketPlayback is the spot-market tier: the step-function
// price integration behind every bill, and a full execution replay
// with a hostile trace feeding preemption notices, kills and health
// degradations into the master. The gap between exec-200x16 here and
// the market-free InProc ceiling is the cost of
// cordon/drain/remediate.
func BenchmarkMarketPlayback(b *testing.B) {
	b.Run("cost", benchsuite.MarketCost())
	b.Run("exec-200x16", benchsuite.MarketExec(200))
}

// BenchmarkProvenanceStore records one 100-activation run's provenance
// the way the exec master does: pre-sized, one attempt and one
// execution row per activation, then the All copy.
func BenchmarkProvenanceStore(b *testing.B) { benchsuite.ProvenanceStore(100)(b) }

// BenchmarkServiceDecode is the service-decode tier: the submit
// handler's one-pass decode of the CyberShake-100 replay submission
// and of the Montage-50 DAX submission, and a client's decode of the
// executed CyberShake-100 terminal status.
func BenchmarkServiceDecode(b *testing.B) {
	b.Run("submit-cybershake100", benchsuite.DecodeSubmit("svc-replay-market.submit.json"))
	b.Run("submit-montage50-dax", benchsuite.DecodeSubmit("svc-warm.submit.json"))
	b.Run("status-executed", benchsuite.DecodeStatus("svc-replay-market.status.json"))
}

// BenchmarkServiceEncode is the service-encode tier: the daemon's
// reflection-free write of the executed CyberShake-100 terminal status.
func BenchmarkServiceEncode(b *testing.B) {
	b.Run("status-executed", benchsuite.EncodeStatus("svc-replay-market.status.json"))
}

// BenchmarkSeededSource is the seeded-source tier: one reseed plus a
// learning episode's 95 draws, and one reseed plus 2000 draws.
func BenchmarkSeededSource(b *testing.B) {
	b.Run("episode-95", benchsuite.SeededSource(95))
	b.Run("full-2000", benchsuite.SeededSource(2000))
}

// BenchmarkPlanReplay is the plan-replay tier: the daemon's simulated
// replay of a submitted CyberShake-100 plan on a pooled engine,
// rebound between two structures of the same shape.
func BenchmarkPlanReplay(b *testing.B) {
	b.Run("cybershake100-pooled", benchsuite.PlanReplay())
}
