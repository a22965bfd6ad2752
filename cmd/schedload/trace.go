package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"reassign/internal/api"
	"reassign/internal/loadgen"
	"reassign/internal/metrics"
)

// emitTrace generates a seeded multi-tenant trace and writes it as
// JSON — the offline half of open-system mode (no daemon needed).
func emitTrace(path string, seed int64, horizon float64, tenants int, rate float64, nodes int) error {
	tr, err := loadgen.Generate(loadgen.TraceConfig{
		Seed:    seed,
		Horizon: horizon,
		Tenants: loadgen.DefaultTenants(tenants, rate, nodes),
	})
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("schedload: wrote %s: %d arrivals, %d tenants, horizon %.0fs, seed %d\n",
		path, len(tr.Arrivals), len(tr.Tenants()), tr.Horizon, tr.Seed)
	return nil
}

// traceOutcome is one replayed arrival's fate.
type traceOutcome struct {
	tenant   string
	latency  float64
	cacheHit bool
	failed   bool
	slaJob   bool
	slaMiss  bool
}

// runTrace replays a trace file against a live daemon: each arrival
// fires at its trace time compressed by timescale, tagged with its
// tenant and (when the arrival carries a deadline) the -sla wall-clock
// hint, then polls to completion. The report breaks the run down per
// tenant — the live counterpart of the offline lane replay.
func runTrace(addr, path string, timescale float64, episodes int, execute bool, sla, timeout time.Duration) error {
	if timescale <= 0 {
		return fmt.Errorf("timescale must be positive, got %v", timescale)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tr loadgen.Trace
	if err := json.Unmarshal(blob, &tr); err != nil {
		return fmt.Errorf("parsing trace %s: %w", path, err)
	}
	if len(tr.Arrivals) == 0 {
		return fmt.Errorf("trace %s has no arrivals", path)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon not reachable: %w", err)
	}
	resp.Body.Close()

	var (
		mu       sync.Mutex
		outcomes []traceOutcome
		rejected int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for _, a := range tr.Arrivals {
		a := a
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Fire at the arrival's compressed wall time.
			at := time.Duration(a.At / timescale * float64(time.Second))
			if d := time.Until(start.Add(at)); d > 0 {
				time.Sleep(d)
			}
			out, err := oneArrival(client, addr, &tr, a, episodes, execute, sla, timeout)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rejected++
				fmt.Fprintf(os.Stderr, "schedload: arrival %s: %v\n", a.ID, err)
				return
			}
			outcomes = append(outcomes, out)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	byTenant := map[string][]traceOutcome{}
	for _, o := range outcomes {
		byTenant[o.tenant] = append(byTenant[o.tenant], o)
	}
	names := make([]string, 0, len(byTenant))
	for name := range byTenant {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	fmt.Printf("schedload: replayed %d arrivals (%d tenants) in %.2fs (timescale %.0fx)\n",
		len(tr.Arrivals), len(names), elapsed.Seconds(), timescale)
	tab := metrics.NewTable("tenants", "tenant", "jobs", "done", "failed", "hit%", "p50", "p95", "sla_jobs", "sla_miss")
	for _, name := range names {
		outs := byTenant[name]
		var lats []float64
		var hits, tFailed, slaJobs, slaMiss int
		for _, o := range outs {
			if o.failed {
				tFailed++
				continue
			}
			lats = append(lats, o.latency)
			if o.cacheHit {
				hits++
			}
			if o.slaJob {
				slaJobs++
				if o.slaMiss {
					slaMiss++
				}
			}
		}
		failed += tFailed
		sum := metrics.Summarize(lats)
		tab.AddRowF(name, len(outs), len(outs)-tFailed, tFailed,
			fmt.Sprintf("%.0f", 100*float64(hits)/float64(max(1, len(outs)-tFailed))),
			sum.P50, sum.P95, slaJobs, slaMiss)
	}
	fmt.Print(tab.String())
	if failed > 0 || rejected > 0 {
		return fmt.Errorf("%d jobs failed, %d rejected", failed, rejected)
	}
	return nil
}

// oneArrival submits one trace arrival and polls it to a terminal
// state.
func oneArrival(client *http.Client, addr string, tr *loadgen.Trace, a loadgen.Arrival, episodes int, execute bool, sla, timeout time.Duration) (traceOutcome, error) {
	req := api.SubmitRequest{
		SchemaVersion: api.SchemaVersion,
		Workflow:      tr.Workflows[a.Workflow],
		Learn:         api.LearnSpec{Episodes: episodes},
		Seed:          a.Seed,
		Execute:       execute,
		Tenant:        a.Tenant,
	}
	if a.DeadlineFactor > 0 && sla > 0 {
		req.DeadlineSeconds = sla.Seconds()
	}
	st, latency, err := submitAndPoll(client, addr, req, timeout)
	if err != nil {
		return traceOutcome{}, err
	}
	if st.State != api.StateDone {
		return traceOutcome{tenant: a.Tenant, failed: true}, nil
	}
	return traceOutcome{
		tenant:   a.Tenant,
		latency:  latency,
		cacheHit: st.CacheHit,
		slaJob:   st.DeadlineSeconds > 0,
		slaMiss:  st.DeadlineMissed,
	}, nil
}
