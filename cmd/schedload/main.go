// Command schedload load-tests a running schedd daemon: it keeps a
// fixed number of scheduling jobs in flight, polls each to completion
// and prints submit-to-finish latency percentiles (p50/p95/p99),
// throughput and the daemon's Q-table cache hit rate.
//
// Usage:
//
//	schedload -addr http://localhost:8425 [-jobs 200] [-concurrency 100]
//	          [-nodes 50] [-episodes 20] [-distinct 4] [-execute]
//
// -distinct cycles K workflow seeds across the jobs, so the run mixes
// cache misses (first job of each structure) with hits (the rest) —
// the warm-start path a steady workload exercises.
//
// Open-system mode replays a seeded multi-tenant arrival trace
// (package loadgen) against the daemon instead of closed-loop
// hammering:
//
//	schedload -writetrace trace.json [-seed 1] [-horizon 300]
//	          [-tenants 3] [-rate 0.05] [-nodes 50]   # generate only
//	schedload -trace trace.json [-timescale 10] [-sla 30s]
//
// -timescale compresses virtual trace time into wall time (10 =
// 10 virtual seconds per wall second); -sla attaches a wall-clock
// deadline hint to every deadline-carrying arrival, and the report
// breaks latency and deadline attainment down per tenant.
//
// The exit code is non-zero when any job fails or is rejected.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"reassign/internal/api"
	"reassign/internal/metrics"
)

func main() {
	addr := flag.String("addr", "http://localhost:8425", "schedd base URL")
	jobs := flag.Int("jobs", 200, "total jobs to submit")
	concurrency := flag.Int("concurrency", 100, "jobs kept in flight")
	nodes := flag.Int("nodes", 50, "workflow size (synthetic Montage)")
	episodes := flag.Int("episodes", 20, "episode budget per job")
	distinct := flag.Int("distinct", 4, "distinct workflow structures cycled across jobs")
	execute := flag.Bool("execute", false, "also execute each plan for provenance")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-job completion timeout")
	trace := flag.String("trace", "", "replay a loadgen trace file instead of closed-loop load")
	writeTrace := flag.String("writetrace", "", "generate a trace file and exit (no daemon needed)")
	seed := flag.Int64("seed", 1, "trace generation seed (with -writetrace)")
	horizon := flag.Float64("horizon", 300, "trace arrival window in virtual seconds (with -writetrace)")
	tenants := flag.Int("tenants", 3, "tenant count (with -writetrace)")
	rate := flag.Float64("rate", 0.05, "per-tenant mean arrivals per virtual second (with -writetrace)")
	timescale := flag.Float64("timescale", 10, "virtual seconds replayed per wall second (with -trace)")
	sla := flag.Duration("sla", 0, "wall-clock deadline hint per deadline-carrying arrival (with -trace)")
	flag.Parse()

	var err error
	switch {
	case *writeTrace != "":
		err = emitTrace(*writeTrace, *seed, *horizon, *tenants, *rate, *nodes)
	case *trace != "":
		err = runTrace(*addr, *trace, *timescale, *episodes, *execute, *sla, *timeout)
	default:
		err = run(*addr, *jobs, *concurrency, *nodes, *episodes, *distinct, *execute, *timeout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedload:", err)
		os.Exit(1)
	}
}

type jobOutcome struct {
	latency  float64 // client-side submit→done seconds
	cacheHit bool
	failed   bool
}

func run(addr string, jobs, concurrency, nodes, episodes, distinct int, execute bool, timeout time.Duration) error {
	if distinct < 1 {
		distinct = 1
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Quick liveness probe before unleashing the fleet.
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon not reachable: %w", err)
	}
	resp.Body.Close()

	var (
		next     atomic.Int64
		rejected atomic.Int64
		peak     atomic.Int64
		inflight atomic.Int64
		mu       sync.Mutex
		outcomes []jobOutcome
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(jobs) {
					return
				}
				cur := inflight.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				out, err := oneJob(client, addr, int(i), nodes, episodes, distinct, execute, timeout)
				inflight.Add(-1)
				if err != nil {
					rejected.Add(1)
					fmt.Fprintf(os.Stderr, "schedload: job %d: %v\n", i, err)
					continue
				}
				mu.Lock()
				outcomes = append(outcomes, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []float64
	var hits, failed int
	for _, o := range outcomes {
		if o.failed {
			failed++
			continue
		}
		lats = append(lats, o.latency)
		if o.cacheHit {
			hits++
		}
	}
	sum := metrics.Summarize(lats)
	done := len(outcomes) - failed
	fmt.Printf("schedload: %d jobs (%d done, %d failed, %d rejected) in %.2fs\n",
		jobs, done, failed, rejected.Load(), elapsed.Seconds())
	fmt.Printf("  throughput   %.2f jobs/s\n", float64(done)/elapsed.Seconds())
	fmt.Printf("  peak in-flight %d\n", peak.Load())
	if sum.N > 0 {
		fmt.Printf("  latency p50  %.3fs\n", sum.P50)
		fmt.Printf("  latency p95  %.3fs\n", sum.P95)
		fmt.Printf("  latency p99  %.3fs\n", sum.P99)
		fmt.Printf("  latency mean %.3fs max %.3fs\n", sum.Mean, sum.Max)
	}
	fmt.Printf("  cache hits   %d/%d (%.0f%%)\n", hits, len(outcomes),
		100*float64(hits)/float64(max(1, len(outcomes))))
	if failed > 0 || rejected.Load() > 0 {
		return fmt.Errorf("%d jobs failed, %d rejected", failed, rejected.Load())
	}
	return nil
}

// oneJob submits one closed-loop job and polls it to a terminal state.
func oneJob(client *http.Client, addr string, i, nodes, episodes, distinct int, execute bool, timeout time.Duration) (jobOutcome, error) {
	st, latency, err := submitAndPoll(client, addr, api.SubmitRequest{
		SchemaVersion: api.SchemaVersion,
		Workflow: api.WorkflowSpec{Synthetic: &api.SyntheticSpec{
			Family: "montage",
			Nodes:  nodes,
			Seed:   int64(i % distinct), // K structures → hit/miss mix
		}},
		Learn:   api.LearnSpec{Episodes: episodes},
		Seed:    int64(i),
		Execute: execute,
	}, timeout)
	if err != nil {
		return jobOutcome{}, err
	}
	return jobOutcome{latency: latency, cacheHit: st.CacheHit, failed: st.State != api.StateDone}, nil
}

// submitAndPoll submits one job and polls it until it is done, failed
// or canceled, returning that final status and the client-side
// submit-to-finish latency in seconds. A refused submission, a
// transport error or the timeout is an error.
func submitAndPoll(client *http.Client, addr string, req api.SubmitRequest, timeout time.Duration) (api.JobStatus, float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return api.JobStatus{}, 0, err
	}
	submitted := time.Now()
	resp, err := client.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return api.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return api.JobStatus{}, 0, fmt.Errorf("submit: %w", httpError(resp))
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return api.JobStatus{}, 0, err
	}

	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		sresp, err := client.Get(addr + "/v1/jobs/" + st.ID)
		if err != nil {
			return api.JobStatus{}, 0, err
		}
		var cur api.JobStatus
		if sresp.StatusCode != http.StatusOK {
			err = fmt.Errorf("polling job %s: %w", st.ID, httpError(sresp))
		} else {
			err = json.NewDecoder(sresp.Body).Decode(&cur)
		}
		sresp.Body.Close()
		if err != nil {
			return api.JobStatus{}, 0, err
		}
		switch cur.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			return cur, time.Since(submitted).Seconds(), nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return api.JobStatus{}, 0, fmt.Errorf("job %s timed out after %v", st.ID, timeout)
}

// httpError describes a response the daemon answered with an error
// status: its code and the typed api.Error body's reason, or why the
// body did not decode as one.
func httpError(resp *http.Response) error {
	var apiErr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		return fmt.Errorf("HTTP %d, undecodable error body: %v", resp.StatusCode, err)
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, apiErr.Reason)
}
