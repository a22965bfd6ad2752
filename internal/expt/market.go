package expt

import (
	"context"
	"fmt"
	"math/rand"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/exec"
	"reassign/internal/market"
	"reassign/internal/metrics"
	"reassign/internal/randsrc"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// MarketFrontierRow is one (regime, policy) point of the cost-vs-
// makespan frontier: the same plan executed under the same market
// trace, once acting on preemption notices (cordon/drain/remediate)
// and once reacting only after the kill.
type MarketFrontierRow struct {
	Regime string
	// Policy is "notice-reactive" or "reactive-only".
	Policy   string
	Makespan float64
	Cost     float64
	// Product is Cost × Makespan, the scalar the frontier compares.
	Product  float64
	Notices  int
	Preempt  int
	Remedied int
	Retries  int
}

// marketFrontierHorizon bounds the traces the frontier study replays:
// long enough to cover any run, short enough that preemptions land
// while the workflow is still executing.
const marketFrontierHorizon = 900

// MarketFrontier executes one HEFT plan for the study workflow under
// each market regime twice — notice-reactive vs reactive-only — over
// the identical trace, and returns the frontier points. Both runs see
// exactly the same prices, kills and degradations; only the master's
// use of the notice differs, so any cost×makespan gap is attributable
// to acting before failure.
func MarketFrontier(o Options) ([]MarketFrontierRow, error) {
	// A 150-node Montage keeps the fleet busy deep into the trace, so
	// preemptions land on working VMs and the policies actually differ;
	// Montage 50 drains too early for most kills to matter. Captured
	// before withDefaults, which would otherwise fill in Montage 50.
	w := o.Workflow
	if w == nil {
		w = trace.MontageN(rand.New(randsrc.New(o.Seed)), 150)
	}
	o = o.withDefaults()
	fleet, err := cloud.FleetTable1(16)
	if err != nil {
		return nil, err
	}
	h := &sched.HEFT{}
	if _, err := sim.Run(w, fleet, h, sim.Config{Hook: o.Hook}); err != nil {
		return nil, err
	}
	plan := core.NewPlan(h.Assign())

	var rows []MarketFrontierRow
	for _, rg := range market.Regimes() {
		tr, err := market.Generate(market.DefaultCatalogue(), fleet, rg, o.Seed+17, marketFrontierHorizon)
		if err != nil {
			return nil, err
		}
		for _, policy := range []string{"notice-reactive", "reactive-only"} {
			pb, err := market.NewPlayback(tr, nil)
			if err != nil {
				return nil, err
			}
			opts := []exec.Option{exec.WithMarket(pb)}
			if policy == "reactive-only" {
				opts = append(opts, exec.WithReactiveOnly())
			}
			m, err := exec.New(w, fleet, plan,
				exec.NewMarketFeed(&exec.InProc{Workers: 4, Runner: exec.SimRunner{}}, pb),
				opts...)
			if err != nil {
				return nil, err
			}
			rep, err := m.Run(context.Background())
			if err != nil {
				return nil, fmt.Errorf("expt: market frontier %s/%s: %w", rg.Name, policy, err)
			}
			rows = append(rows, MarketFrontierRow{
				Regime: rg.Name, Policy: policy,
				Makespan: rep.Makespan, Cost: rep.Cost,
				Product: rep.Cost * rep.Makespan,
				Notices: rep.PreemptNotices, Preempt: rep.Preempted,
				Remedied: rep.Remediated, Retries: rep.Retries,
			})
		}
	}
	return rows, nil
}

// StudyMarketFrontier renders the frontier as a table: per regime, the
// notice-reactive master should dominate (or match) the reactive-only
// baseline on cost×makespan, since it drains doomed VMs before their
// work is lost.
func StudyMarketFrontier(o Options) (*metrics.Table, error) {
	rows, err := MarketFrontier(o)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		"Study: spot-market frontier (Montage 150 on 16 vCPUs, exec master over traced regimes)",
		"regime", "policy", "makespan (s)", "cost (USD)", "cost x makespan",
		"notices", "preempted", "remediated", "retries")
	for _, r := range rows {
		t.AddRowF(r.Regime, r.Policy, r.Makespan,
			fmt.Sprintf("%.4f", r.Cost), fmt.Sprintf("%.2f", r.Product),
			r.Notices, r.Preempt, r.Remedied, r.Retries)
	}
	return t, nil
}
