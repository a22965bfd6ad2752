package schedd

import (
	"io"
	"sync"

	"reassign/internal/api"
	"reassign/internal/metrics"
)

// DefaultTenant is the accounting label for submissions that carry no
// tenant.
const DefaultTenant = "default"

// maxTenants caps the distinct tenant labels /metrics carries. A tenant
// first seen once the ledger holds maxTenants-1 labels is accounted
// under otherTenant, so clients inventing names cannot grow the scrape
// without bound.
const (
	maxTenants  = 256
	otherTenant = "other"
)

// The job counts the ledger keeps, in /metrics order.
const (
	jobsSubmitted = iota
	jobsCompleted
	jobsFailed
	jobsCanceled
	jobsRejected
	jobsQueued
	jobsRunning
	deadlineHits
	deadlineMisses
	numCounts
)

// counts is one ledger record's lifecycle counters, queue occupancy
// gauges and deadline outcomes, indexed by the constants above.
type counts [numCounts]int64

// countSeries is the per-tenant /metrics series of each count.
var countSeries = [numCounts]struct{ metric, typ, help string }{
	{"schedd_tenant_jobs_submitted_total", "counter", "Jobs admitted per tenant"},
	{"schedd_tenant_jobs_completed_total", "counter", "Jobs finished successfully per tenant"},
	{"schedd_tenant_jobs_failed_total", "counter", "Jobs failed per tenant"},
	{"schedd_tenant_jobs_canceled_total", "counter", "Jobs canceled per tenant"},
	{"schedd_tenant_jobs_rejected_total", "counter", "Queue-full rejections per tenant"},
	{"schedd_tenant_jobs_queued", "gauge", "Jobs waiting in the admission queue per tenant"},
	{"schedd_tenant_jobs_running", "gauge", "Jobs executing per tenant"},
	{"schedd_tenant_deadline_hits_total", "counter", "Jobs finished within their deadline hint per tenant"},
	{"schedd_tenant_deadline_misses_total", "counter", "Jobs that overran their deadline hint per tenant"},
}

// tenantStats is one ledger record: its counts and a bounded window of
// submit→finish latencies.
type tenantStats struct {
	n   counts
	lat *metrics.Window
}

// tenantTracker is the daemon's job ledger. Every lifecycle transition
// updates the tenant's record and the total beside it under one lock,
// so the daemon-wide and per-tenant series of /metrics cannot drift
// apart; the daemon's request rate is nowhere near making that lock
// contended.
type tenantTracker struct {
	mu      sync.Mutex
	window  int
	total   tenantStats
	tenants map[string]*tenantStats
}

func newTenantTracker(window int) *tenantTracker {
	return &tenantTracker{
		window:  window,
		total:   tenantStats{lat: metrics.NewWindow(window)},
		tenants: make(map[string]*tenantStats),
	}
}

// get returns the record a submission's tenant is accounted under,
// creating it while the label cap allows. Records are never removed,
// so a tenant lands in the same record on every transition.
func (tt *tenantTracker) get(name string) *tenantStats {
	if name == "" {
		name = DefaultTenant
	}
	if ts := tt.tenants[name]; ts != nil {
		return ts
	}
	if len(tt.tenants) >= maxTenants-1 && name != otherTenant {
		return tt.get(otherTenant)
	}
	ts := &tenantStats{lat: metrics.NewWindow(tt.window)}
	tt.tenants[name] = ts
	return ts
}

// add applies one lifecycle transition, its count deltas d and any
// latency samples, to the tenant's record and to the total.
func (tt *tenantTracker) add(tenant string, d counts, latency ...float64) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, ts := range [2]*tenantStats{tt.get(tenant), &tt.total} {
		for i, v := range d {
			ts.n[i] += v
		}
		for _, v := range latency {
			ts.lat.Add(v)
		}
	}
}

// finished records a terminal state. ran distinguishes jobs settled
// from running (worker finished or mid-run cancel) from jobs settled
// straight out of the queue (canceled while queued). deadline is the
// submission's SLA hint in seconds (0 = none).
func (tt *tenantTracker) finished(tenant, state string, latency, deadline float64, ran bool) {
	var d counts
	if ran {
		d[jobsRunning] = -1
	} else {
		d[jobsQueued] = -1
	}
	switch state {
	case api.StateDone:
		d[jobsCompleted] = 1
	case api.StateCanceled:
		d[jobsCanceled] = 1
	default:
		d[jobsFailed] = 1
	}
	switch {
	case deadline <= 0:
	case latency <= deadline:
		d[deadlineHits] = 1
	default:
		d[deadlineMisses] = 1
	}
	tt.add(tenant, d, latency)
}

// totals returns the daemon-wide counts and a summary of its latency
// window.
func (tt *tenantTracker) totals() (counts, metrics.Summary) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.total.n, tt.total.lat.Summary()
}

// writeProm emits the per-tenant series in Prometheus text form, one
// labeled sample per tenant per metric.
func (tt *tenantTracker) writeProm(w io.Writer) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if len(tt.tenants) == 0 {
		return
	}
	p := metrics.NewPromWriter(w)
	for c, s := range countSeries {
		values := make(map[string]float64, len(tt.tenants))
		for name, ts := range tt.tenants {
			values[name] = float64(ts.n[c])
		}
		metrics.Labeled(p, s.metric, s.typ, s.help, "tenant", values)
	}

	// Latency percentiles over each tenant's bounded window; a tenant
	// with no finished job has none.
	lat := [3]map[string]float64{{}, {}, {}}
	for name, ts := range tt.tenants {
		if s := ts.lat.Summary(); s.N > 0 {
			lat[0][name], lat[1][name], lat[2][name] = s.P50, s.P95, s.P99
		}
	}
	for i, q := range [3]struct{ suffix, what string }{{"p50", "median"}, {"p95", "95th percentile"}, {"p99", "99th percentile"}} {
		metrics.Labeled(p, "schedd_tenant_job_latency_seconds_"+q.suffix, "gauge",
			"Per-tenant submit-to-finish latency ("+q.what+", recent window)", "tenant", lat[i])
	}
}
