package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
)

// tcpWorkload is exec-tcp-wide: master lifecycles over loopback TCP,
// one caller. The transport is constructed as internal/benchsuite's
// exec tier does — TimeScale 1e-4, heartbeats and lease retries off —
// so the numbers isolate the master and the wire from timer noise.
type tcpWorkload struct {
	name, why        string
	measured, warmup int // lifecycles at scale 1
	sample           int // InProc runs of the same plan in the traced pass
	tasks, workers   int
}

const lifecycleTimeout = 60 * time.Second

// tcpCorpus is the generated input: a wide workflow, a round-robin
// plan, and the InProc run of that plan as the reference.
type tcpCorpus struct {
	wl     tcpWorkload
	w      *dag.Workflow
	fleet  *cloud.Fleet
	plan   core.Plan
	runner exec.NewRunner
	// From the InProc reference run: each activation's virtual
	// duration, and the makespan.
	dur         map[string]float64
	refMakespan float64
}

func (wl tcpWorkload) corpus(seed int64) (*tcpCorpus, error) {
	fleet, err := cloud.FleetScaled(wl.workers * 16)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	w := dag.New(fmt.Sprintf("exec-tcp-wide-%d", wl.tasks))
	assign := make(map[string]int, wl.tasks)
	for i := 0; i < wl.tasks; i++ {
		id := fmt.Sprintf("x%04d", i)
		if _, err := w.Add(id, "bench", float64(1+rng.Intn(7))); err != nil {
			return nil, err
		}
		assign[id] = fleet.VMs[i%fleet.Len()].ID
	}
	c := &tcpCorpus{
		wl: wl, w: w, fleet: fleet, plan: core.NewPlan(assign),
		runner: func(float64) exec.Runner { return exec.SimRunner{} },
	}
	rep, _, err := c.inproc()
	if err != nil {
		return nil, fmt.Errorf("InProc reference: %w", err)
	}
	c.refMakespan = rep.Makespan
	c.dur = make(map[string]float64, wl.tasks)
	for _, r := range rep.Results {
		c.dur[r.ID] = r.Finish - r.Start
	}
	return c, nil
}

// inproc runs the plan over the virtual-time transport and returns
// how long exec.New + Run took.
func (c *tcpCorpus) inproc() (*exec.Report, time.Duration, error) {
	t0 := time.Now()
	tr := &exec.InProc{Workers: c.wl.workers, Runner: exec.SimRunner{}, HeartbeatEvery: 1e9}
	m, err := exec.New(c.w, c.fleet, c.plan, tr, exec.WithLease(1e9, 1))
	if err != nil {
		return nil, 0, err
	}
	rep, err := m.Run(context.Background())
	if err == nil && rep.Done != c.wl.tasks {
		err = fmt.Errorf("done = %d of %d", rep.Done, c.wl.tasks)
	}
	return rep, time.Since(t0), err
}

// lifecycle is one measured operation: Listen, 8 dials each served by
// exec.ServeConn, Open, Run, Close, and the wait for the workers to
// leave.
type lifecycle struct {
	start                time.Time
	join, run, teardown  time.Duration
	wireBytes, wireCalls int64
	ratio                float64
	err                  string
}

func (c *tcpCorpus) lifecycle() (lc lifecycle) {
	lc.start = time.Now()
	fail := func(err error) lifecycle {
		lc.err = err.Error()
		return lc
	}
	ctx, cancel := context.WithTimeout(context.Background(), lifecycleTimeout)
	defer cancel()
	tcp := &exec.TCP{Addr: "127.0.0.1:0", Workers: c.wl.workers, TimeScale: 1e-4, HeartbeatEvery: 1e9}
	if err := tcp.Listen(); err != nil {
		return fail(err)
	}
	var workers sync.WaitGroup
	conns := make([]net.Conn, 0, c.wl.workers)
	// On every path: shut the transport, wait for the workers' sessions
	// to end, release their sockets.
	teardown := func() {
		tcp.Close()
		workers.Wait()
		for _, conn := range conns {
			conn.Close()
		}
	}
	m, err := exec.New(c.w, c.fleet, c.plan, tcp, exec.WithLease(1e9, 1), exec.WithCallerOwnedTransport())
	if err != nil {
		teardown()
		return fail(err)
	}
	for j := 0; j < c.wl.workers; j++ {
		conn, err := net.Dial("tcp", tcp.ListenAddr())
		if err != nil {
			teardown()
			return fail(err)
		}
		conns = append(conns, conn)
		workers.Add(1)
		go func() {
			defer workers.Done()
			exec.ServeConn(ctx, conn, c.runner) // ends on the master's shutdown message or the closed socket
		}()
	}
	if _, err := tcp.Open(ctx); err != nil {
		teardown()
		return fail(err)
	}
	t1 := time.Now()
	rep, err := m.Run(ctx)
	t2 := time.Now()
	teardown()
	lc.join, lc.run, lc.teardown = t1.Sub(lc.start), t2.Sub(t1), time.Since(t2)
	if err != nil {
		return fail(err)
	}
	if rep.Done != c.wl.tasks {
		return fail(fmt.Errorf("done = %d of %d", rep.Done, c.wl.tasks))
	}
	in, out := tcp.Bytes()
	reads, writes := tcp.Calls()
	lc.wireBytes, lc.wireCalls = in+out, reads+writes
	lc.ratio = c.placementMakespan(rep) / c.refMakespan
	return lc
}

// placementMakespan is the makespan the TCP run's own placement
// implies in virtual time: per VM, the virtual durations of the
// attempts it was sent, spread over its slots. The master's
// Report.Makespan over TCP is wall-clock time divided by TimeScale —
// a latency, reported as such — so the quality figure is built from
// what the wire cannot perturb: which VM ran what, and how often.
func (c *tcpCorpus) placementMakespan(rep *exec.Report) float64 {
	load := make(map[int]float64, c.fleet.Len())
	longest := 0.0
	for _, r := range rep.Results {
		d := c.dur[r.ID]
		load[r.VM] += d * float64(r.Attempts)
		longest = math.Max(longest, d)
	}
	makespan := longest
	for _, vm := range c.fleet.VMs {
		makespan = math.Max(makespan, load[vm.ID]/float64(vm.Type.VCPUs))
	}
	return makespan
}

// drive runs n lifecycles back to back (one caller) and converts them
// to job records, so the end-to-end arithmetic is the service
// workloads'.
func (c *tcpCorpus) drive(n int, rec *recorder) ([]lifecycle, []jobRecord, time.Duration) {
	lcs := make([]lifecycle, n)
	recs := make([]jobRecord, n)
	start := time.Now()
	for i := range lcs {
		lc := c.lifecycle()
		lcs[i] = lc
		recs[i] = jobRecord{err: lc.err, latency: lc.join + lc.run + lc.teardown, ratio: lc.ratio}
		if rec != nil && lc.err == "" {
			id := fmt.Sprintf("lifecycle-%d", i)
			t1, t2 := lc.start.Add(lc.join), lc.start.Add(lc.join+lc.run)
			root := rec.add(0, id, "job", lc.start, t2.Add(lc.teardown))
			rec.add(root, id, "exec.tcp_join", lc.start, t1)
			rec.add(root, id, "exec.master_run", t1, t2)
			rec.add(root, id, "exec.teardown", t2, t2.Add(lc.teardown))
		}
	}
	return lcs, recs, time.Since(start)
}

func (wl tcpWorkload) run(opts options) (*result, error) {
	scaled := func(n int) int { return max(2, int(math.Round(float64(n)*opts.scale))) }
	nMeasured, nWarmup := scaled(wl.measured), scaled(wl.warmup)
	res := &result{
		workload: wl.name,
		counts:   fmt.Sprintf("measured=%d warmup=%d callers=1 tasks=%d workers=%d", nMeasured, nWarmup, wl.tasks, wl.workers),
		metrics:  map[string]float64{},
	}
	var c *tcpCorpus
	setups, err := setUp(res, opts, func() (warm []jobRecord, err error) {
		if c, err = wl.corpus(opts.seed); err == nil {
			_, warm, _ = c.drive(nWarmup, nil)
		}
		return warm, err
	}, nil)
	if err != nil {
		return nil, err
	}
	res.attempted += nMeasured
	if opts.trace {
		return res, wl.traced(c, res, opts, nMeasured)
	}
	win := measure(func() ([]jobRecord, time.Duration) {
		_, recs, wall := c.drive(nMeasured, nil)
		return recs, wall
	})
	runtime.KeepAlive(c) // the corpus is this workload's long-lived state; keep it in retained_heap_mb
	endToEndMetrics(res, win, setups)
	return res, nil
}

// traced is the per-layer pass: half the lifecycles without span
// recording and half with, then the same plan over InProc.
func (wl tcpWorkload) traced(c *tcpCorpus, res *result, opts options, n int) error {
	_, plain, plainWall := c.drive(n/2, nil)
	rec := newRecorder()
	lcs, traced, tracedWall := c.drive(n-n/2, rec)
	var join, run, teardown []float64
	var wireBytes, wireCalls int64
	for _, r := range plain {
		if r.err != "" {
			res.fail("%s", r.err)
		}
	}
	for _, lc := range lcs {
		if lc.err != "" {
			res.fail("%s", lc.err)
			continue
		}
		join, run, teardown = append(join, ms(lc.join)), append(run, ms(lc.run)), append(teardown, ms(lc.teardown))
		wireBytes += lc.wireBytes
		wireCalls += lc.wireCalls
	}
	var inproc []float64
	for i := 0; i < wl.sample; i++ {
		t0 := time.Now()
		_, took, err := c.inproc()
		if err != nil {
			return err
		}
		inproc = append(inproc, ms(took))
		rec.add(0, fmt.Sprintf("inproc-%d", i), "exec.inproc_run", t0, t0.Add(took))
	}
	m := res.metrics
	tasks := float64(len(run) * wl.tasks)
	m["exec.tcp_join_ms"] = quantile(join, 0.5)
	m["exec.master_run_ms"] = quantile(run, 0.5)
	m["exec.teardown_ms"] = quantile(teardown, 0.5)
	m["exec.tasks_per_s"] = float64(wl.tasks) / (m["exec.master_run_ms"] / 1000)
	m["exec.wire_bytes_per_task"] = float64(wireBytes) / tasks
	m["exec.syscalls_per_task"] = float64(wireCalls) / tasks
	m["exec.tcp_over_inproc"] = m["exec.master_run_ms"] / quantile(inproc, 0.5)
	m["trace.overhead_share"] = overheadShare(plain, plainWall, traced, tracedWall)
	res.digest = digest(append(plain, traced...))
	return rec.write(opts.out, res.workload, stamp(opts))
}
