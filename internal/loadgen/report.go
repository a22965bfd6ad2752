package loadgen

import (
	"fmt"
	"strings"

	"reassign/internal/metrics"
)

// TenantSummary aggregates one tenant's outcomes within one lane.
type TenantSummary struct {
	Tenant string `json:"tenant"`
	Jobs   int    `json:"jobs"`
	// MeanSlowdown is the mean of (wait+service)/service; 1 = never
	// queued.
	MeanSlowdown float64 `json:"mean_slowdown"`
	// Share is the tenant's normalised attainment: 1/MeanSlowdown over
	// the sum across tenants. Equal shares = fair service.
	Share float64 `json:"share"`
	// Queue-wait statistics in virtual seconds.
	MeanWait float64 `json:"mean_wait"`
	WaitP50  float64 `json:"wait_p50"`
	WaitP95  float64 `json:"wait_p95"`
	WaitP99  float64 `json:"wait_p99"`
	// SLAJobs counts deadline-carrying jobs; SLAHitRate is the
	// fraction finishing within deadline (0 when SLAJobs is 0).
	SLAJobs    int     `json:"sla_jobs"`
	SLAHitRate float64 `json:"sla_hit_rate"`
	// CostUSD is the tenant's bill: the sum of its jobs' costs, in
	// arrival order (fixed summation order keeps reports
	// bit-identical).
	CostUSD float64 `json:"cost_usd"`
}

// LaneReport is one policy's scorecard over the whole trace.
type LaneReport struct {
	Policy Policy `json:"policy"`
	// Makespan (virtual seconds to drain the trace) and Throughput
	// (jobs per 1000 virtual seconds) measure raw capacity.
	Makespan   float64 `json:"makespan"`
	Throughput float64 `json:"throughput"`
	// Jain is Jain's fairness index over per-tenant attainment
	// (1/mean slowdown): 1 = perfectly fair, 1/n = one tenant starves
	// the rest.
	Jain float64 `json:"jain"`
	// MaxMin is the max-min fairness ratio: the worst tenant's
	// attainment over the best tenant's (1 = equal service).
	MaxMin float64 `json:"max_min"`
	// SLAHitRate is the overall deadline-hit fraction.
	SLAHitRate float64 `json:"sla_hit_rate"`
	// Queue-wait percentiles across all jobs.
	WaitP50 float64 `json:"wait_p50"`
	WaitP95 float64 `json:"wait_p95"`
	WaitP99 float64 `json:"wait_p99"`
	// CostUSD is the lane's total bill (sum of tenant bills).
	CostUSD float64 `json:"cost_usd"`

	Tenants  []TenantSummary `json:"tenants"`
	Outcomes []JobOutcome    `json:"-"` // raw per-job data, not serialised
}

// Report compares every lane over one trace.
type Report struct {
	Seed    int64        `json:"seed"`
	Jobs    int          `json:"jobs"`
	Tenants []string     `json:"tenants"`
	Lanes   []LaneReport `json:"lanes"`
}

// buildLaneReport reduces a lane's outcomes to its scorecard. tenants
// is the sorted tenant list shared by every lane, so rows line up
// across policies.
func buildLaneReport(lane *LaneResult, tenants []string) LaneReport {
	rep := LaneReport{
		Policy:     lane.Policy,
		Makespan:   lane.Makespan,
		Throughput: lane.Throughput,
		Outcomes:   lane.Outcomes,
	}
	byTenant := map[string][]JobOutcome{}
	var waits []float64
	slaJobs, slaHits := 0, 0
	for _, o := range lane.Outcomes {
		byTenant[o.Tenant] = append(byTenant[o.Tenant], o)
		waits = append(waits, o.Wait)
		if o.DeadlineAt > 0 {
			slaJobs++
			if o.SLAMet {
				slaHits++
			}
		}
	}
	ws := metrics.Summarize(waits)
	rep.WaitP50, rep.WaitP95, rep.WaitP99 = ws.P50, ws.P95, ws.P99
	if slaJobs > 0 {
		rep.SLAHitRate = float64(slaHits) / float64(slaJobs)
	}

	// Per-tenant attainment x_i = 1/mean slowdown: 1 when the tenant
	// never waits, → 0 as queueing dominates. (Attained-service shares
	// are trivially equal once the trace drains, so fairness is judged
	// on responsiveness, not volume.)
	attain := make([]float64, 0, len(tenants))
	var attainSum float64
	for _, name := range tenants {
		outs := byTenant[name]
		ts := TenantSummary{Tenant: name, Jobs: len(outs)}
		if len(outs) > 0 {
			var slow float64
			tWaits := make([]float64, 0, len(outs))
			for _, o := range outs {
				slow += o.Slowdown()
				ts.CostUSD += o.Cost
				tWaits = append(tWaits, o.Wait)
				if o.DeadlineAt > 0 {
					ts.SLAJobs++
					if o.SLAMet {
						ts.SLAHitRate++ // hit count for now; normalised below
					}
				}
			}
			ts.MeanSlowdown = slow / float64(len(outs))
			tws := metrics.Summarize(tWaits)
			ts.MeanWait, ts.WaitP50, ts.WaitP95, ts.WaitP99 = tws.Mean, tws.P50, tws.P95, tws.P99
			if ts.SLAJobs > 0 {
				ts.SLAHitRate /= float64(ts.SLAJobs)
			}
			x := 1 / ts.MeanSlowdown
			attain = append(attain, x)
			attainSum += x
		}
		rep.CostUSD += ts.CostUSD
		rep.Tenants = append(rep.Tenants, ts)
	}
	for i := range rep.Tenants {
		if rep.Tenants[i].Jobs > 0 && attainSum > 0 {
			rep.Tenants[i].Share = (1 / rep.Tenants[i].MeanSlowdown) / attainSum
		}
	}
	rep.Jain = jainIndex(attain)
	rep.MaxMin = maxMinRatio(attain)
	return rep
}

// jainIndex is Jain's fairness index (Σx)²/(n·Σx²) over per-tenant
// attainment: 1 when all tenants are served equally well.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// maxMinRatio is min/max over per-tenant attainment: 1 when the worst
// tenant does as well as the best.
func maxMinRatio(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	hi := metrics.Max(xs)
	if hi == 0 {
		return 0
	}
	return metrics.Min(xs) / hi
}

// String renders the report as aligned tables: one lane scorecard,
// then a per-tenant breakdown per lane. All floats render with fixed
// precision, so equal reports produce equal strings (the bit-identical
// determinism contract).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "open-system replay: %d jobs, %d tenants, seed %d\n\n", r.Jobs, len(r.Tenants), r.Seed)
	lanes := metrics.NewTable("lanes", "policy", "makespan", "jobs/1ks", "jain", "maxmin", "sla_hit", "wait_p50", "wait_p95", "wait_p99", "cost_usd")
	for _, l := range r.Lanes {
		lanes.AddRowF(string(l.Policy), l.Makespan, l.Throughput, l.Jain, l.MaxMin, l.SLAHitRate, l.WaitP50, l.WaitP95, l.WaitP99, l.CostUSD)
	}
	b.WriteString(lanes.String())
	for _, l := range r.Lanes {
		b.WriteByte('\n')
		t := metrics.NewTable("lane "+string(l.Policy), "tenant", "jobs", "slowdown", "share", "mean_wait", "wait_p95", "sla_jobs", "sla_hit", "cost_usd")
		for _, ts := range l.Tenants {
			t.AddRowF(ts.Tenant, ts.Jobs, ts.MeanSlowdown, ts.Share, ts.MeanWait, ts.WaitP95, ts.SLAJobs, ts.SLAHitRate, ts.CostUSD)
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// TSV renders the lane scorecards as a machine-readable table.
func (r *Report) TSV() string {
	t := metrics.NewTable("lanes", "policy", "tenant", "jobs", "slowdown", "share", "mean_wait", "wait_p50", "wait_p95", "wait_p99", "sla_jobs", "sla_hit", "cost_usd")
	for _, l := range r.Lanes {
		for _, ts := range l.Tenants {
			t.AddRowF(string(l.Policy), ts.Tenant, ts.Jobs, ts.MeanSlowdown, ts.Share, ts.MeanWait, ts.WaitP50, ts.WaitP95, ts.WaitP99, ts.SLAJobs, ts.SLAHitRate, ts.CostUSD)
		}
	}
	return t.TSV()
}
