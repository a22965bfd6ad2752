// Command experiments regenerates the paper's evaluation tables
// (Tables I–V) and the DESIGN.md ablations.
//
// Usage:
//
//	experiments                 # all tables, paper-scale (100 episodes)
//	experiments -table 3        # just Table III
//	experiments -episodes 20    # faster, smaller episode budget
//	experiments -ablations      # the ablation suite instead of I-V
//	experiments -out results/   # additionally write TSVs per table
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"reassign/internal/expt"
	"reassign/internal/invariant"
	"reassign/internal/metrics"
	"reassign/internal/report"
	"reassign/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run() (err error) {
	table := flag.Int("table", 0, "regenerate one table (1-5); 0 = all")
	episodes := flag.Int("episodes", 100, "learning episodes per configuration")
	seed := flag.Int64("seed", 1, "random seed")
	replicas := flag.Int("replicas", 1, "parallel learning replicas per configuration (best plan wins)")
	ablations := flag.Bool("ablations", false, "run the ablation suite instead of Tables I-V")
	baselines := flag.Bool("baselines", false, "run the wider baseline comparison")
	studies := flag.Bool("studies", false, "run the beyond-paper studies (Montage scaling, replicas, open system, market frontier)")
	curves := flag.String("curves", "", "write ReASSIgN learning curves (SVG) to this file and exit")
	reportPath := flag.String("report", "", "write a self-contained HTML report (all tables + figures) and exit")
	outDir := flag.String("out", "", "also write TSV files to this directory")
	traceOut := flag.String("trace", "", "write a JSONL telemetry trace of every learning run to this file")
	metricsOut := flag.String("metrics", "", "write aggregated metrics in Prometheus text format to this file on exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	audit := flag.Bool("audit", false, "attach the runtime invariant auditor to every simulation and fail on violations")
	flag.Parse()

	if *replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1, got %d", *replicas)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise live-heap stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			}
		}()
	}

	// Telemetry: both sinks are mutex-guarded, which matters here —
	// RunSweep learns its configurations in parallel, so events from
	// different runs interleave in the trace.
	var jsonl *telemetry.JSONL
	var agg *telemetry.Aggregator
	var sinks []telemetry.Sink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		jsonl = telemetry.NewJSONL(f)
		sinks = append(sinks, jsonl)
	}
	if *metricsOut != "" {
		agg = telemetry.NewAggregator()
		sinks = append(sinks, agg)
	}

	o := expt.Options{Seed: *seed, Episodes: *episodes, Replicas: *replicas, Sink: telemetry.Multi(sinks...)}
	if *audit {
		aud := invariant.New()
		o.Hook = aud
		// Every return path reports the audit outcome; a violation
		// turns an otherwise successful invocation into a failure.
		defer func() {
			if err != nil {
				return
			}
			if aerr := aud.Err(); aerr != nil {
				for _, v := range aud.Violations() {
					fmt.Fprintf(os.Stderr, "audit: %s\n", v)
				}
				err = aerr
				return
			}
			fmt.Printf("audit: %d run(s), 0 invariant violations\n", aud.Runs())
		}()
	}
	defer func() {
		if jsonl != nil {
			if err := jsonl.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: trace: %v\n", err)
			} else {
				fmt.Printf("trace written to %s\n", *traceOut)
			}
		}
		if agg != nil {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: metrics: %v\n", err)
				return
			}
			defer f.Close()
			if err := agg.Snapshot().WriteProm(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: metrics: %v\n", err)
				return
			}
			fmt.Printf("metrics written to %s\n", *metricsOut)
		}
	}()
	emit := func(name string, t *metrics.Table) error {
		fmt.Println(t.String())
		if *outDir == "" {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*outDir, name+".tsv"), []byte(t.TSV()), 0o644)
	}

	if *reportPath != "" {
		if err := writeReport(o, *reportPath); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *reportPath)
		return nil
	}

	if *curves != "" {
		chart, err := expt.LearningCurves(o, 5)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*curves, []byte(chart.SVG()), 0o644); err != nil {
			return err
		}
		fmt.Printf("learning curves written to %s\n", *curves)
		return nil
	}

	if *ablations {
		type gen struct {
			name string
			fn   func(expt.Options) (*metrics.Table, error)
		}
		for _, g := range []gen{
			{"ablation_rho", expt.AblationRho},
			{"ablation_mu", expt.AblationMu},
			{"ablation_policy", expt.AblationPolicy},
			{"ablation_episodes", expt.AblationEpisodes},
			{"ablation_rule", expt.AblationRule},
			{"ablation_discount", expt.AblationDiscount},
			{"ablation_bootstrap", expt.AblationBootstrap},
			{"ablation_costweight", expt.AblationCostWeight},
			{"ablation_schedules", expt.AblationSchedules},
			{"ablation_clustering", expt.AblationClustering},
		} {
			t, err := g.fn(o)
			if err != nil {
				return fmt.Errorf("%s: %w", g.name, err)
			}
			if err := emit(g.name, t); err != nil {
				return err
			}
		}
		return nil
	}
	if *studies {
		sc, err := expt.StudyScaling(o)
		if err != nil {
			return err
		}
		if err := emit("study_scaling", sc); err != nil {
			return err
		}
		rs, err := expt.ReplicaScaling(o, nil)
		if err != nil {
			return err
		}
		if err := emit("study_replicas", rs); err != nil {
			return err
		}
		osys, err := expt.StudyOpenSystem(o)
		if err != nil {
			return err
		}
		if err := emit("study_open_system", osys); err != nil {
			return err
		}
		mf, err := expt.StudyMarketFrontier(o)
		if err != nil {
			return err
		}
		return emit("study_market_frontier", mf)
	}
	if *baselines {
		for _, vcpus := range []int{16, 32, 64} {
			t, err := expt.BaselineComparison(o, vcpus)
			if err != nil {
				return err
			}
			if err := emit(fmt.Sprintf("baselines_%dvcpu", vcpus), t); err != nil {
				return err
			}
		}
		return nil
	}

	want := func(n int) bool { return *table == 0 || *table == n }
	if want(1) {
		if err := emit("table1", expt.Table1()); err != nil {
			return err
		}
	}
	if want(2) || want(3) {
		sweep, err := expt.RunSweep(o)
		if err != nil {
			return err
		}
		if want(2) {
			if err := emit("table2", expt.Table2(sweep)); err != nil {
				return err
			}
		}
		if want(3) {
			if err := emit("table3", expt.Table3(sweep)); err != nil {
				return err
			}
		}
	}
	if want(4) {
		rows, err := expt.RunTable4(o)
		if err != nil {
			return err
		}
		if err := emit("table4", expt.Table4(rows)); err != nil {
			return err
		}
	}
	if want(5) {
		t5, err := expt.Table5(o)
		if err != nil {
			return err
		}
		if err := emit("table5", t5); err != nil {
			return err
		}
		share, err := expt.Table5BigVMShare(o)
		if err != nil {
			return err
		}
		fmt.Printf("t2.2xlarge placement share: HEFT=%.2f C1=%.2f C2=%.2f C3=%.2f\n\n",
			share["HEFT"], share["C1"], share["C2"], share["C3"])
	}
	return nil
}

// writeReport assembles the full reproduction into one HTML file:
// Tables I-V in the paper's layout, the learning-curve figure, and
// HEFT vs ReASSIgN Gantt charts on the 16-vCPU fleet.
func writeReport(o expt.Options, path string) error {
	b := report.New("ReASSIgN reproduction — paper tables and figures")
	b.AddParagraph("Generated by cmd/experiments -report. " +
		"See EXPERIMENTS.md for the paper-vs-measured discussion.")

	b.AddHeading("Table I — VM configurations")
	b.AddTable(expt.Table1())

	b.AddHeading("Tables II & III — learning time and simulated makespan")
	sweep, err := expt.RunSweep(o)
	if err != nil {
		return err
	}
	b.AddTable(expt.Table2(sweep))
	b.AddTable(expt.Table3(sweep))

	b.AddHeading("Table IV — executed-plan makespans")
	rows, err := expt.RunTable4(o)
	if err != nil {
		return err
	}
	b.AddTable(expt.Table4(rows))

	b.AddHeading("Table V — scheduling plans at 16 vCPUs")
	t5, err := expt.Table5(o)
	if err != nil {
		return err
	}
	b.AddTable(t5)
	share, err := expt.Table5BigVMShare(o)
	if err != nil {
		return err
	}
	b.AddParagraph(fmt.Sprintf(
		"t2.2xlarge placement share — HEFT: %.2f, C1: %.2f, C2: %.2f, C3: %.2f.",
		share["HEFT"], share["C1"], share["C2"], share["C3"]))

	b.AddHeading("Learning curves")
	chart, err := expt.LearningCurves(o, 5)
	if err != nil {
		return err
	}
	b.AddSVG(chart.SVG())

	b.AddHeading("Open system — multi-tenant arrival lanes")
	osys, err := expt.StudyOpenSystem(o)
	if err != nil {
		return err
	}
	b.AddTable(osys)

	b.AddHeading("Spot market — notice-reactive vs reactive-only frontier")
	mf, err := expt.StudyMarketFrontier(o)
	if err != nil {
		return err
	}
	b.AddTable(mf)

	b.AddHeading("Schedules — HEFT vs learned plan (16 vCPUs)")
	charts, err := expt.ScheduleCharts(o)
	if err != nil {
		return err
	}
	for _, c := range charts {
		b.AddSVG(c.SVG())
	}

	return os.WriteFile(path, []byte(b.HTML()), 0o644)
}
