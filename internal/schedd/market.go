package schedd

import (
	"io"
	"sync"

	"reassign/internal/exec"
	"reassign/internal/market"
	"reassign/internal/metrics"
)

// marketTracker aggregates spot-market series across every market
// execution the daemon runs, for /metrics. Notice and revocation
// counters are labeled per provider (attributed through the trace's
// VM assignments), the bill accrues per provider from each run's
// cost report, and the cordoned gauge counts VMs that were cordoned
// by a preemption notice and never killed — capacity the policy
// drained early. Same locking discipline as tenantTracker.
type marketTracker struct {
	mu       sync.Mutex
	runs     int64
	notices  map[string]int64
	kills    map[string]int64
	cost     map[string]float64
	cordoned int64
}

func newMarketTracker() *marketTracker {
	return &marketTracker{
		notices: make(map[string]int64),
		kills:   make(map[string]int64),
		cost:    make(map[string]float64),
	}
}

// record folds one finished market execution into the series. Traced
// notice and kill events are counted up to the run's makespan — the
// window in which the master could observe them — and attributed to
// the owning VM's provider.
func (mt *marketTracker) record(pb *market.Playback, rep *exec.Report) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.runs++
	for _, ev := range pb.Events() {
		if ev.At > rep.Makespan {
			continue
		}
		a, ok := pb.AssignFor(ev.VM)
		if !ok {
			continue
		}
		switch ev.Kind {
		case market.EvNotice:
			mt.notices[a.Provider]++
		case market.EvKill:
			mt.kills[a.Provider]++
		}
	}
	for _, pc := range rep.CostByProvider {
		mt.cost[pc.Provider] += pc.Cost
	}
	if alive := rep.Cordoned - rep.Preempted; alive > 0 {
		mt.cordoned += int64(alive)
	}
}

// writeProm emits the market series in Prometheus text form, one
// labeled sample per provider, providers sorted so the output is
// stable. Nothing is emitted until the first market execution.
func (mt *marketTracker) writeProm(w io.Writer) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if mt.runs == 0 {
		return
	}
	p := metrics.NewPromWriter(w)
	p.Counter("schedd_market_runs_total", "Jobs executed over a spot-market trace", mt.runs)
	metrics.Labeled(p, "schedd_market_preempt_notices_total", "counter",
		"Traced preemption notices delivered during market executions", "provider", mt.notices)
	metrics.Labeled(p, "schedd_market_revocations_total", "counter",
		"Traced spot kills delivered during market executions", "provider", mt.kills)
	metrics.Labeled(p, "schedd_market_cost_usd_total", "counter",
		"Cumulative traced bill of market executions", "provider", mt.cost)
	p.Gauge("schedd_market_cordoned_vms", "VMs cordoned by a notice and never killed, cumulative", mt.cordoned)
}
