// Command reassign schedules a workflow onto a Table I cloud fleet
// with any implemented algorithm and reports the plan and makespan.
// For -sched reassign it runs the full two-stage pipeline: Q-learning
// episodes in the simulator, greedy plan extraction, then (with
// -execute) execution on the exec master with provenance output.
//
// Usage:
//
//	reassign -dax montage50.dax -sched heft -vcpus 16
//	reassign -sched reassign -episodes 100 -alpha 0.5 -gamma 1 -epsilon 0.1
//	reassign -sched minmin -vcpus 64 -fluct=false -plan plan.tsv
//	reassign -sched reassign -trace trace.jsonl -metrics metrics.prom
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/dax"
	"reassign/internal/exec"
	"reassign/internal/gantt"
	"reassign/internal/invariant"
	"reassign/internal/market"
	"reassign/internal/metrics"
	"reassign/internal/plot"
	"reassign/internal/provenance"
	"reassign/internal/randsrc"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
	"reassign/internal/trace"
	"reassign/internal/wfjson"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "reassign: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	daxPath := flag.String("dax", "", "workflow file, DAX XML or WfFormat JSON (default: synthetic Montage 50)")
	schedName := flag.String("sched", "reassign", "scheduler: reassign|heft|minmin|maxmin|mct|fcfs|rr|random|dataaware|cheapfirst|siteaware|ga|adaptive")
	vcpus := flag.Int("vcpus", 16, "Table I fleet: 16, 32 or 64 vCPUs")
	seed := flag.Int64("seed", 1, "random seed")
	episodes := flag.Int("episodes", 100, "ReASSIgN learning episodes")
	replicas := flag.Int("replicas", 1, "run K parallel learning replicas with split seeds and keep the best plan")
	alpha := flag.Float64("alpha", 0.5, "ReASSIgN learning rate α")
	gamma := flag.Float64("gamma", 1.0, "ReASSIgN discount γ")
	epsilon := flag.Float64("epsilon", 0.1, "ReASSIgN exploitation probability ε (paper convention)")
	fluct := flag.Bool("fluct", true, "enable the cloud fluctuation model")
	execute := flag.Bool("execute", false, "execute the plan on the exec master after scheduling (in-process workers in virtual time, or execworkers with -listen)")
	workers := flag.Int("workers", 1, "with -execute, the number of exec workers the fleet's VMs are partitioned across")
	listen := flag.String("listen", "", "with -execute, serve the master on this TCP address and wait for -workers execworker processes (default: in-process deterministic workers)")
	faultRate := flag.Float64("faultrate", 0, "with -execute, inject worker deaths with this per-event probability")
	failRate := flag.Float64("failrate", 0, "with -execute, inject per-attempt task failures with this probability")
	planOut := flag.String("plan", "", "write the activation→VM plan to this file (TSV, or JSON for .json paths)")
	planIn := flag.String("planin", "", "skip scheduling and load the plan (TSV or JSON) from this file")
	qOut := flag.String("qtable", "", "save the learned Q table (JSON) to this file")
	qIn := flag.String("resume", "", "resume learning from a saved Q table")
	seedProv := flag.String("seedprov", "", "seed the Q table from a provenance store (JSON) before learning")
	provOut := flag.String("prov", "", "write execution provenance (JSON) to this file")
	provCSV := flag.String("provcsv", "", "write execution provenance (CSV) to this file")
	provCSVAttempts := flag.Bool("provcsv-attempts", false, "include per-attempt history rows in -provcsv output")
	ganttOut := flag.String("gantt", "", "write the schedule as an SVG Gantt chart to this file")
	curveOut := flag.String("learncurve", "", "write the per-episode makespan curve (SVG) to this file (ReASSIgN only)")
	ascii := flag.Bool("ascii", false, "print an ASCII Gantt chart of the schedule")
	traceOut := flag.String("trace", "", "write a JSONL telemetry trace (episodes, decisions, kernel counters, exec dispatches and completions) to this file")
	metricsOut := flag.String("metrics", "", "write aggregated metrics in Prometheus text format to this file on exit")
	audit := flag.Bool("audit", false, "attach the runtime invariant auditor to every simulation and fail on violations")
	marketGen := flag.String("marketgen", "", "generate a spot-market trace (JSON) for the fleet, write it to this file and exit")
	marketIn := flag.String("market", "", "with -execute, replay a spot-market trace (JSON): traced prices, preemptions and node health drive the execution (scheduling stays market-free)")
	regime := flag.String("regime", "volatile", "market regime for -marketgen: stable|volatile|hostile")
	horizon := flag.Float64("horizon", 3600, "market trace horizon in virtual seconds for -marketgen")
	reactiveOnly := flag.Bool("reactiveonly", false, "with -market and -execute, disable notice-reactive cordon/drain: the master reacts to kills only")
	flag.Parse()

	if *replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1, got %d", *replicas)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}
	if *marketIn != "" && !*execute {
		return fmt.Errorf("-market replays a trace on the exec master and needs -execute")
	}

	// Telemetry: a JSONL trace and/or an in-memory aggregator, fanned
	// out behind one sink. Both nil leaves instrumentation disabled.
	var jsonl *telemetry.JSONL
	var agg *telemetry.Aggregator
	var sinks []telemetry.Sink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl = telemetry.NewJSONL(f)
		sinks = append(sinks, jsonl)
	}
	if *metricsOut != "" {
		agg = telemetry.NewAggregator()
		sinks = append(sinks, agg)
	}
	sink := telemetry.Multi(sinks...)

	w, err := loadWorkflow(*daxPath, *seed)
	if err != nil {
		return err
	}
	fleet, err := cloud.FleetTable1(*vcpus)
	if err != nil {
		return err
	}
	if *marketGen != "" {
		rg, ok := market.RegimeByName(*regime)
		if !ok {
			return fmt.Errorf("unknown market regime %q (stable|volatile|hostile)", *regime)
		}
		tr, err := market.Generate(market.DefaultCatalogue(), fleet, rg, *seed, *horizon)
		if err != nil {
			return err
		}
		f, err := os.Create(*marketGen)
		if err != nil {
			return err
		}
		if err := tr.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("market:   %s trace written to %s (%d VMs, %d events, horizon %.0fs)\n",
			tr.Regime, *marketGen, len(tr.Assign), len(tr.Events), tr.Horizon)
		return nil
	}
	var marketPB *market.Playback
	if *marketIn != "" {
		pb, err := market.LoadPlayback(*marketIn, nil)
		if err != nil {
			return err
		}
		marketPB = pb
		fmt.Printf("market:   replaying %s (%s regime, %d events, horizon %.0fs)\n",
			*marketIn, pb.Trace().Regime, len(pb.Events()), pb.Horizon())
	}
	var fm *cloud.FluctuationModel
	if *fluct {
		f := cloud.DefaultFluctuation()
		fm = &f
	}
	cfg := sim.Config{Fluct: fm, Seed: *seed}
	var aud *invariant.Auditor
	if *audit {
		aud = invariant.New()
		cfg.Hook = aud
	}

	fmt.Printf("workflow: %s (%d activations, %d edges)\n", w.Name, w.Len(), w.Edges())
	fmt.Printf("fleet:    %s (%d VMs, %d vCPUs, $%.4f/h)\n",
		fleet.Name, fleet.Len(), fleet.VCPUs(), fleet.PricePerHour())

	var plan core.Plan
	var makespan float64
	var lastRes *sim.Result
	var learnedTable *rl.Table
	if *planIn != "" {
		p, err := readPlan(*planIn)
		if err != nil {
			return err
		}
		if err := p.Validate(w, fleet); err != nil {
			return err
		}
		// Replay the loaded plan once so the report still shows a
		// simulated makespan.
		res, err := sim.Run(w, fleet, &sched.Plan{PlanName: "loaded", Assign: p.Map()}, cfg)
		if err != nil {
			return err
		}
		plan, makespan, lastRes = p, res.Makespan, res
		fmt.Printf("plan:     loaded from %s\n", *planIn)
	} else if strings.EqualFold(*schedName, "reassign") {
		p := core.DefaultParams()
		p.Alpha, p.Gamma, p.Epsilon = *alpha, *gamma, *epsilon
		opts := []core.Option{core.WithSeed(*seed), core.WithSink(sink)}
		if *qIn != "" {
			tab := rl.NewTable(w.Len(), len(fleet.VMs), rand.New(randsrc.New(*seed)), 1.0)
			if err := tab.LoadFile(*qIn); err != nil {
				return err
			}
			opts = append(opts, core.WithTable(tab))
		}
		if *replicas > 1 {
			opts = append(opts, core.WithReplicas(*replicas))
		}
		if *seedProv != "" {
			ps := provenance.NewStore()
			if err := ps.LoadFile(*seedProv); err != nil {
				return err
			}
			opts = append(opts, core.WithProvenanceSeed(ps))
			fmt.Printf("seed:     Q table seeded from %s (%d records)\n", *seedProv, ps.Len())
		}
		l, err := core.NewLearner(core.Config{
			Workflow: w, Fleet: fleet, Params: p, Episodes: *episodes, Sim: cfg,
		}, opts...)
		if err != nil {
			return err
		}
		var res *core.Result
		var ensemble *core.ReplicaResult
		if *replicas > 1 {
			ensemble, err = l.LearnReplicas()
			if err != nil {
				return err
			}
			res = ensemble.BestResult()
			fmt.Printf("replicas: %d learners in %v wall clock; best is replica %d (seed %d)\n",
				*replicas, ensemble.LearningTime, ensemble.Best, ensemble.Seeds[ensemble.Best])
		} else {
			res, err = l.Learn()
			if err != nil {
				return err
			}
		}
		plan, makespan = res.Plan, res.PlanMakespan
		fmt.Printf("learning: %d episodes in %v (best episode makespan %.2fs)\n",
			len(res.Episodes), res.LearningTime, res.BestEpisodeMakespan)
		if *curveOut != "" {
			xs := make([]float64, len(res.Episodes))
			ys := make([]float64, len(res.Episodes))
			for i, ep := range res.Episodes {
				xs[i] = float64(ep.Episode)
				ys[i] = ep.Makespan
			}
			chart := &plot.Chart{
				Title:  fmt.Sprintf("ReASSIgN learning curve — %s, %d vCPUs", w.Name, fleet.VCPUs()),
				XLabel: "episode", YLabel: "episode makespan (s)",
				Series: []plot.Series{
					{Name: "episode", X: xs, Y: ys},
					{Name: "smoothed", X: xs, Y: plot.Smooth(ys, 5)},
				},
			}
			if err := os.WriteFile(*curveOut, []byte(chart.SVG()), 0o644); err != nil {
				return err
			}
			fmt.Printf("curve:    written to %s\n", *curveOut)
		}
		learnedTable = res.Table
		if ensemble != nil {
			// Use the replica consensus rather than one replica's table:
			// averaged values seed the next execution better.
			learnedTable = ensemble.EnsembleTable(*seed)
		}
		if *qOut != "" {
			if err := learnedTable.SaveFile(*qOut); err != nil {
				return err
			}
			fmt.Printf("q-table:  saved to %s (%d entries)\n", *qOut, learnedTable.Len())
		}
	} else {
		s, err := lookupScheduler(*schedName, *seed)
		if err != nil {
			return err
		}
		scfg := cfg
		scfg.Sink = sink
		res, err := sim.Run(w, fleet, s, scfg)
		if err != nil {
			return err
		}
		if res.State != sim.FinishedOK {
			return fmt.Errorf("simulation ended in state %v", res.State)
		}
		plan, makespan, lastRes = core.NewPlan(res.Plan), res.Makespan, res
	}
	fmt.Printf("plan:     %d activations scheduled, simulated makespan %.3fs (%s)\n",
		plan.Len(), makespan, metrics.FormatDuration(makespan))
	fmt.Println(planSummary(plan, fleet))

	if *ascii || *ganttOut != "" {
		if lastRes == nil {
			// ReASSIgN path: replay the learned plan once for the chart.
			res, err := sim.Run(w, fleet, &sched.Plan{PlanName: "ReASSIgN", Assign: plan.Map()}, cfg)
			if err != nil {
				return err
			}
			lastRes = res
		}
		chart := gantt.FromResult(lastRes, fleet)
		if *ascii {
			fmt.Print(chart.ASCII(100))
		}
		if *ganttOut != "" {
			if err := os.WriteFile(*ganttOut, []byte(chart.SVG()), 0o644); err != nil {
				return err
			}
			fmt.Printf("gantt:    written to %s\n", *ganttOut)
		}
	}

	if *planOut != "" {
		if err := writePlan(*planOut, w.Name, fleet.Name, makespan, plan); err != nil {
			return err
		}
		fmt.Printf("plan:     written to %s\n", *planOut)
	}

	if *execute {
		store := provenance.NewStore()
		if err := runMaster(w, fleet, plan, store, sink, learnedTable,
			*workers, *listen, *faultRate, *failRate, fm, *seed,
			marketPB, *reactiveOnly); err != nil {
			return err
		}
		if *provOut != "" {
			if err := store.SaveFile(*provOut); err != nil {
				return err
			}
			fmt.Printf("prov:     written to %s (%d records)\n", *provOut, store.Len())
		}
		if *provCSV != "" {
			f, err := os.Create(*provCSV)
			if err != nil {
				return err
			}
			if err := store.WriteCSV(f, *provCSVAttempts); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("provcsv:  written to %s\n", *provCSV)
		}
	}

	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("trace:    written to %s\n", *traceOut)
	}
	if agg != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := agg.Snapshot().WriteProm(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics:  written to %s\n", *metricsOut)
	}
	if aud != nil {
		if err := aud.Err(); err != nil {
			for _, v := range aud.Violations() {
				fmt.Fprintf(os.Stderr, "audit: %s\n", v)
			}
			return err
		}
		fmt.Printf("audit:    %d run(s), 0 invariant violations\n", aud.Runs())
	}
	return nil
}

func loadWorkflow(path string, seed int64) (*dag.Workflow, error) {
	if path == "" {
		return trace.Montage50(rand.New(randsrc.New(seed))), nil
	}
	if strings.HasSuffix(path, ".json") {
		return wfjson.ReadFile(path)
	}
	return dax.ReadFile(path)
}

func lookupScheduler(name string, seed int64) (sim.Scheduler, error) {
	switch strings.ToLower(name) {
	case "heft":
		return &sched.HEFT{}, nil
	case "minmin":
		return &sched.MinMin{}, nil
	case "maxmin":
		return &sched.MaxMin{}, nil
	case "mct":
		return &sched.MCT{}, nil
	case "fcfs":
		return &sched.FCFS{}, nil
	case "rr", "roundrobin":
		return &sched.RoundRobin{}, nil
	case "random":
		return &sched.Random{Seed: seed}, nil
	case "dataaware":
		return &sched.DataAware{}, nil
	case "cheapfirst":
		return &sched.CheapFirst{}, nil
	case "siteaware":
		return &sched.SiteAware{}, nil
	case "ga":
		return &sched.GA{Seed: seed}, nil
	case "adaptive":
		return &sched.Adaptive{}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

// planSummary is the placement line: how many activations the plan
// puts on each VM, by ID, with the VM's type. The fleet's VM IDs are
// its indices; a VM the fleet lacks prints its type as "?".
func planSummary(plan core.Plan, fleet *cloud.Fleet) string {
	counts := make(map[int]int)
	for i := 0; i < plan.Len(); i++ {
		counts[plan.At(i).VM]++
	}
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var parts []string
	for _, id := range ids {
		typ := "?"
		if id >= 0 && id < fleet.Len() {
			typ = fleet.VMs[id].Type.Name
		}
		parts = append(parts, fmt.Sprintf("vm%d(%s)=%d", id, typ, counts[id]))
	}
	return "placement: " + strings.Join(parts, " ")
}

func writePlan(path, workflow, fleet string, makespan float64, plan core.Plan) error {
	if strings.HasSuffix(path, ".json") {
		// The versioned document (package api) — byte-compatible with
		// the schedd daemon's payloads, so a plan written here can be
		// POSTed to /v1/jobs and vice versa.
		doc := api.NewPlanDocument(workflow, fleet, makespan, plan)
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	var b strings.Builder
	b.WriteString("activation\tvm\n")
	for _, e := range plan.Entries() {
		fmt.Fprintf(&b, "%s\t%d\n", e.Activation, e.VM)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readPlan loads a plan written by writePlan: for .json paths the
// versioned api.PlanDocument, whose schema version must be current,
// the two-column TSV otherwise.
func readPlan(path string) (core.Plan, error) {
	var plan core.Plan
	if strings.HasSuffix(path, ".json") {
		data, err := os.ReadFile(path)
		if err != nil {
			return plan, err
		}
		var doc api.PlanDocument
		if err := json.Unmarshal(data, &doc); err != nil {
			return plan, fmt.Errorf("plan %s: %w", path, err)
		}
		if err := api.CheckSchemaVersion(doc.SchemaVersion); err != nil {
			return plan, fmt.Errorf("plan %s: %w", path, err)
		}
		return doc.Plan, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return plan, err
	}
	defer f.Close()
	m := make(map[string]int)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || (line == 1 && strings.HasPrefix(text, "activation")) {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return plan, fmt.Errorf("plan %s:%d: want 'activation vm', got %q", path, line, text)
		}
		vm, err := strconv.Atoi(fields[1])
		if err != nil {
			return plan, fmt.Errorf("plan %s:%d: bad VM %q", path, line, fields[1])
		}
		m[fields[0]] = vm
	}
	if err := sc.Err(); err != nil {
		return plan, err
	}
	return core.NewPlan(m), nil
}

// runMaster executes the plan on the master/worker runtime: in-process
// deterministic workers by default, or — with listen non-empty — a TCP
// master that waits for execworker processes to join.
func runMaster(w *dag.Workflow, fleet *cloud.Fleet, plan core.Plan,
	store *provenance.Store, sink telemetry.Sink, table *rl.Table,
	workers int, listen string, faultRate, failRate float64,
	fm *cloud.FluctuationModel, seed int64,
	pb *market.Playback, reactiveOnly bool) error {
	var runner exec.Runner = exec.SimRunner{Fluct: fm, Seed: seed + 2000}
	if failRate > 0 {
		runner = exec.FailingRunner{Inner: runner, Rate: failRate, Seed: seed}
	}
	var tr exec.Transport
	var tcp *exec.TCP
	if listen != "" {
		tcp = &exec.TCP{Addr: listen, Workers: workers}
		if err := tcp.Listen(); err != nil {
			return err
		}
		fmt.Printf("exec:     listening on %s, waiting for %d execworker(s)\n", tcp.ListenAddr(), workers)
		tr = tcp
	} else {
		tr = &exec.InProc{Workers: workers, Runner: runner}
	}
	if faultRate > 0 {
		tr = &exec.Fault{Inner: tr, Rate: faultRate, Seed: seed}
	}
	opts := []exec.Option{exec.WithStore(store, "cli"), exec.WithSink(sink)}
	if pb != nil {
		// Outermost wrapper, so traced notices, kills and health
		// changes interleave with (possibly fault-injected) worker
		// traffic in virtual-time order.
		tr = exec.NewMarketFeed(tr, pb)
		opts = append(opts, exec.WithMarket(pb))
		if reactiveOnly {
			opts = append(opts, exec.WithReactiveOnly())
		}
	}
	if table != nil {
		opts = append(opts, exec.WithQTable(table))
	}
	m, err := exec.New(w, fleet, plan, tr, opts...)
	if err != nil {
		return err
	}
	rep, err := m.Run(context.Background())
	if rep != nil && rep.Attempts > 0 {
		fmt.Printf("executed: %d/%d activations, makespan %.3fs (%s), wall %v\n",
			rep.Done, rep.Tasks, rep.Makespan, metrics.FormatDuration(rep.Makespan),
			rep.Wall.Round(time.Millisecond))
		fmt.Printf("exec:     %d attempts, %d retries, %d reassigned, %d worker(s) lost, %d abandoned\n",
			rep.Attempts, rep.Retries, rep.Reassigned, rep.WorkerLost, rep.Abandoned)
		if pb != nil {
			fmt.Printf("market:   %d notices, %d kills, %d cordoned, %d remediated, %d degraded, bill $%.4f\n",
				rep.PreemptNotices, rep.Preempted, rep.Cordoned, rep.Remediated, rep.Degraded, rep.Cost)
		}
	}
	if tcp != nil && rep != nil && rep.Done > 0 {
		in, out := tcp.Bytes()
		reads, writes := tcp.Calls()
		fmt.Printf("wire:     %d B in, %d B out (%.1f B/task), %d reads, %d writes\n",
			in, out, float64(in+out)/float64(rep.Done), reads, writes)
	}
	return err
}
