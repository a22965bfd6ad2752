package main

import (
	"fmt"
	"net/http"
	"time"
)

// traced is the per-layer pass of a service workload: half the
// measured jobs without span recording and half with (their ratio is
// the tracing overhead), the read side where the workload asks for
// it, then the mirror over the first jobs of the sequence.
func (wl *svcWorkload) traced(s *session, res *result, opts options, nWarmup, nMeasured int) error {
	half := nMeasured / 2
	plain, plainWall := s.drive(nWarmup, half, nil)
	rec := newRecorder()
	traced, tracedWall := s.drive(nWarmup+half, nMeasured-half, rec)
	for _, r := range plain {
		if r.err != "" {
			res.fail("%s", r.err)
		}
	}
	var submit, wait, run, status, lat, bytes, polls []float64
	hits := 0.0
	for _, r := range traced {
		if r.err != "" {
			res.fail("%s", r.err)
			continue
		}
		submit, status = append(submit, ms(r.submitRTT)), append(status, ms(r.statusRTT))
		wait, run = append(wait, ms(r.queueWait)), append(run, ms(r.run))
		lat = append(lat, ms(r.latency))
		bytes, polls = append(bytes, float64(r.statusBytes)), append(polls, float64(r.polls))
		if r.cacheHit {
			hits++
		}
	}
	m := res.metrics
	m["schedd.submit_rtt_ms"] = quantile(submit, 0.5)
	m["schedd.queue_wait_ms"] = quantile(wait, 0.5)
	m["schedd.run_ms"] = quantile(run, 0.5)
	m["schedd.status_rtt_ms"] = quantile(status, 0.5)
	m["schedd.status_bytes"] = mean(bytes)
	m["schedd.polls_per_job"] = mean(polls)
	m["schedd.cache_hit_share"] = hits / float64(max(len(lat), 1))
	m["schedd.job_latency_p90_ms"] = quantile(lat, 0.90)
	m["schedd.job_latency_p99_ms"] = quantile(lat, 0.99)
	m["trace.overhead_share"] = overheadShare(plain, plainWall, traced, tracedWall)
	res.digest = digest(append(plain, traced...)) // the same jobs, so the same digest, as the end-to-end pass
	if wl.readSide {
		if err := s.readSide(m, rec); err != nil {
			return err
		}
	}

	mir := newMirror(rec)
	var body []byte
	for i := 0; i < min(wl.sample, nWarmup+nMeasured); i++ {
		body = s.sts[i%structures].body(body, s.jobSeed(i))
		if _, err := mir.job(fmt.Sprintf("mirror-%d", i), body); err != nil {
			return err
		}
	}
	m["mirror.unattributed_ms"] = m["schedd.run_ms"] - mir.metrics(m)
	return rec.write(opts.out, res.workload, stamp(opts))
}

// readSide times the daemon's read paths — the /metrics scrape and
// the job list — against exactly the state the writes left.
func (s *session) readSide(m map[string]float64, rec *recorder) error {
	const reads = 15
	c := s.clients[0]
	for _, ep := range []struct{ path, name string }{
		{"/metrics", "schedd.scrape"},
		{"/v1/jobs", "schedd.list"},
	} {
		var took, size []float64
		for i := 0; i < reads; i++ {
			t0 := time.Now()
			code, n, err := c.call(http.MethodGet, s.ts.URL+ep.path, nil, nil)
			t1 := time.Now()
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d, %v", ep.path, code, err)
			}
			rec.add(0, fmt.Sprintf("read-%d", i), ep.name, t0, t1)
			took, size = append(took, ms(t1.Sub(t0))), append(size, float64(n))
		}
		m[ep.name+"_ms"] = quantile(took, 0.5)
		m[ep.name+"_bytes"] = mean(size)
	}
	return nil
}

// overheadShare is 1 − traced ÷ untraced jobs per second.
func overheadShare(plain []jobRecord, plainWall time.Duration, traced []jobRecord, tracedWall time.Duration) float64 {
	untraced := float64(len(plain)) / plainWall.Seconds()
	return 1 - float64(len(traced))/tracedWall.Seconds()/untraced
}
