package main

import (
	"math/rand"
	"strings"

	"reassign/internal/api"
	"reassign/internal/core"
	"reassign/internal/dax"
	"reassign/internal/trace"
	"reassign/internal/wfjson"
)

// workload is one entry of BENCHMARK.json's workloads list.
type workload struct {
	name string
	why  string
	run  func(options) (*result, error)
	svc  *svcWorkload // nil for exec-tcp-wide
}

// Job counts are fixed, not time-boxed, so the work, the allocation
// and every plan are identical from run to run; they are sized so the
// measured window is about nominalSeconds on one CPU of the reference
// box.
var workloads = []workload{
	service(svcWorkload{
		name: "svc-warm",
		why:  "Montage-50 as inline DAX, 100 episodes, every measured job a warm-cache hit: decode, table copy, a short learn and status encode weigh alike",
		// 8 structures cycling; the warm-up covers each one many
		// times over, so the measured jobs all continue a cached table.
		measured: 2100, warmup: 120, sample: 200, readSide: true,
		request: func(d int) (api.SubmitRequest, error) {
			w := trace.MontageN(structureRNG(d), 50)
			var doc strings.Builder
			if err := dax.Write(&doc, w); err != nil {
				return api.SubmitRequest{}, err
			}
			return api.SubmitRequest{
				Workflow: api.WorkflowSpec{Format: "dax", Source: doc.String()},
				Fleet:    api.FleetSpec{Preset: "table1", VCPUs: 16},
			}, nil
		},
	}),
	service(svcWorkload{
		name:     "svc-cold-large",
		why:      "synthetic Montage-1000 on 256 vCPUs, 20 episodes, no warm start: the learner's TD path and table allocation are ~90% of the time, service overhead is small",
		measured: 200, warmup: 12, sample: 8,
		request: func(d int) (api.SubmitRequest, error) {
			return api.SubmitRequest{
				Workflow: api.WorkflowSpec{Format: "synthetic", Synthetic: &api.SyntheticSpec{
					Family: "montage", Nodes: 1000, Seed: int64(d) + 1,
				}},
				Fleet:       api.FleetSpec{Preset: "scaled", VCPUs: 256},
				Learn:       api.LearnSpec{Episodes: 20},
				NoWarmStart: true,
			}, nil
		},
	}),
	service(svcWorkload{
		name:     "svc-replay-market",
		why:      "CyberShake-100 as inline wfjson with a submitted plan, executed under a hostile market trace: no learning; plan validation, sim replay, market, the exec master and provenance dominate",
		measured: 4400, warmup: 240, sample: 300, execute: true,
		request: func(d int) (api.SubmitRequest, error) {
			var doc strings.Builder
			if err := wfjson.Write(&doc, trace.CyberShake(structureRNG(d), 100)); err != nil {
				return api.SubmitRequest{}, err
			}
			req := api.SubmitRequest{
				Workflow: api.WorkflowSpec{Format: "wfjson", Source: doc.String()},
				Fleet:    api.FleetSpec{Preset: "table1", VCPUs: 32},
				Execute:  true,
				Market:   &api.MarketSpec{Regime: "hostile"},
			}
			// The plan is learned once per structure, here in set-up, on
			// the workflow as the daemon will parse it.
			w, err := req.Workflow.Build()
			if err != nil {
				return req, err
			}
			fleet, err := req.Fleet.Build()
			if err != nil {
				return req, err
			}
			l, err := core.NewLearner(core.Config{Workflow: w, Fleet: fleet}, core.WithSeed(int64(d)+1))
			if err != nil {
				return req, err
			}
			learned, err := l.Learn()
			if err != nil {
				return req, err
			}
			req.Plan = api.NewPlanDocument(w.Name, fleet.Name, learned.PlanMakespan, learned.Plan)
			return req, nil
		},
	}),
	execTCP(tcpWorkload{
		name:     "exec-tcp-wide",
		why:      "5000 independent activations over 8 loopback-TCP workers, binary codec: the exec master on a real wire, where svc-replay-market runs it in virtual time",
		measured: 1400, warmup: 80, sample: 20, tasks: 5000, workers: 8,
	}),
}

func execTCP(wl tcpWorkload) workload {
	return workload{name: wl.name, why: wl.why, run: wl.run}
}

func service(wl svcWorkload) workload {
	return workload{name: wl.name, why: wl.why, run: wl.run, svc: &wl}
}

// structureRNG seeds structure d's generator. The eight structures of
// a corpus are the same on every run: -seed drives what differs from
// job to job (Q-table initialisation, exploration, the market trace),
// so two seeds measure the same amount of work and a mean over jobs
// does not inherit the luck of eight draws.
func structureRNG(d int) *rand.Rand {
	return rand.New(rand.NewSource(int64(d) + 1))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
